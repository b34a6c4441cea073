package swmhttp

import "testing"

// TestPutEnvBufDropsOversized pins the envelope pool's size cap: a
// buffer an exec body grew past maxPooledEnvBuf is dropped, and one
// within the cap comes back empty.
func TestPutEnvBufDropsOversized(t *testing.T) {
	big := make([]byte, 100, maxPooledEnvBuf+1)
	putEnvBuf(&big)
	small := make([]byte, 100, 8<<10)
	putEnvBuf(&small)
	for i := 0; i < 4; i++ {
		bp := envBufPool.Get().(*[]byte)
		if cap(*bp) > maxPooledEnvBuf {
			t.Fatalf("pool handed back a %d-byte buffer, cap %d", cap(*bp), maxPooledEnvBuf)
		}
		if len(*bp) != 0 {
			t.Errorf("pooled buffer has length %d, want 0", len(*bp))
		}
	}
}
