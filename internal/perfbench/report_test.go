package perfbench

import "testing"

func TestCPUModel(t *testing.T) {
	cpuinfo := "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel\t\t: 85\nmodel name\t: Intel(R) Xeon(R) CPU @ 2.20GHz\n\nprocessor\t: 1\nmodel name\t: other\n"
	if got, want := CPUModel([]byte(cpuinfo)), "Intel(R) Xeon(R) CPU @ 2.20GHz"; got != want {
		t.Errorf("CPUModel = %q, want %q", got, want)
	}
	if got := CPUModel(nil); got != "" {
		t.Errorf("CPUModel(nil) = %q, want \"\"", got)
	}
}
