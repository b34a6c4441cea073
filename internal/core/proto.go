package core

import (
	"strconv"

	"repro/internal/xproto"
)

// Decoration prototypes. objects.Build resolves every panel, button and
// text attribute through the resource database — dozens of queries plus
// a bindings.Parse per object — yet the result depends only on the
// lookup context, not on the individual client: the database, the
// screen (number and monochrome), the dynamic resource prefixes
// ("shaped", "sticky", "transient") and the resolved decoration panel
// name. decorate therefore builds each distinct context once, keeps the
// pristine tree in the database's memo (xrdb.DB.Memo), and hands every
// client a deep Clone — per-client state (labels, layout geometry,
// realized windows) only ever touches the clone.
//
// Correctness hinges on two points. First, the key must cover every
// input Build reads: the prefixes are part of the key because the
// paper's "shaped"/"sticky" components change which resource entries
// match (swm.color.screen0.shaped.button.background can differ from
// the unshaped answer), and the panel name is part of the key because
// two classes may resolve to different decorations under the same
// prefixes. Second, a prototype must not outlive the database contents
// it was built from: the memo is dropped by every real Put, Merge or
// Load, exactly as the compiled query trie is, and a Clone starts
// empty. Every WM on one database shares its prototypes, so a fleet
// builds each context once for all its sessions.

// protoKey appends the memo key for c's decoration under panel to buf.
func protoKey(buf []byte, c *Client, panel string) []byte {
	var flags byte
	if c.scr.Monochrome {
		flags |= 1
	}
	if c.Shaped {
		flags |= 2
	}
	if c.Sticky {
		flags |= 4
	}
	if c.Transient != xproto.None {
		flags |= 8
	}
	buf = append(buf, "core.deco "...)
	buf = strconv.AppendInt(buf, int64(c.scr.Num), 10)
	buf = append(buf, ' ', '0'+flags)
	return append(buf, panel...)
}
