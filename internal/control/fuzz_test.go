package control

import (
	"strings"
	"testing"
)

// FuzzControlParse: the console's parser takes whatever an operator, a
// script or a stranger on the port types. On any line it must not panic;
// an error from an ADD/DEL TENANT line must not carry any long argument
// of that line (the key, wherever a typo put it: ERR responses are
// logged and cross the wire); and a route it accepts must survive
// FormatRoute → Parse unchanged, since LIST ROUTES output is fed back as
// scripts.
func FuzzControlParse(f *testing.F) {
	for _, line := range strings.Split(twoLinkScript, "\n") {
		f.Add(line)
	}
	for _, line := range []string{
		"ADD TENANT 7 KEY " + testKeyHex(),
		"ADD TENANT " + testKeyHex() + " KEY 7",
		"add tenant 7 key " + testKeyHex()[:62],
		"ADD LINK l1 REMOTE host:1 UDP TENANT 3",
		"ADD ROUTE 02:00:00:00:00:01 not-02:00:00:00:00:02 link l1 BACKUP interface nic0 TENANT 9",
		"DEL ROUTE any any link TENANT BACKUP link TENANT TENANT 3",
		"DEL LINK l1",
		"LIST STATS",
		"LINK STATUS to-b",
		"link probe 250 5 3",
		"LINK TUNE wan AUTO",
		"TRACE START FLOW 02:56:00:00:00:02",
		"TRACE START SAMPLE 100",
		"TRACE DUMP",
		"ADD ROUTE NOT- any link \xff",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		cmd, err := Parse(line)
		if err != nil {
			if cmd != nil {
				t.Fatalf("Parse(%q) returned a command with error %v", line, err)
			}
			fields := strings.Fields(line)
			if len(fields) > 2 && strings.EqualFold(fields[1], "TENANT") &&
				(strings.EqualFold(fields[0], "ADD") || strings.EqualFold(fields[0], "DEL")) {
				for _, arg := range fields[2:] {
					// 16 bytes: a quarter of a key, and longer than any
					// word of the parser's own messages.
					if len(arg) >= 16 && strings.Contains(err.Error(), arg) {
						t.Fatalf("Parse(%q) echoes %q in its error: %v", line, arg, err)
					}
				}
			}
			return
		}
		if cmd.Kind != "ROUTE" {
			return
		}
		again, err := Parse(cmd.Verb + " ROUTE " + FormatRoute(cmd.Route))
		if err != nil {
			t.Fatalf("Parse(%q) accepted a route that FormatRoute renders as %q, which fails: %v", line, FormatRoute(cmd.Route), err)
		}
		if again.Route != cmd.Route || again.Verb != cmd.Verb || again.Tenant != cmd.Tenant {
			t.Fatalf("Parse(%q): route %+v came back from %q as %+v", line, cmd.Route, FormatRoute(cmd.Route), again.Route)
		}
	})
}
