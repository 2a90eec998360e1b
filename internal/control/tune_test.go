package control

import (
	"errors"
	"strings"
	"testing"
)

// tuneFake extends the package's fakeTarget with the TuneTarget
// surface, recording what Apply forwarded.
type tuneFake struct {
	*fakeTarget
	tuned map[string]string
}

func newTuneFake() *tuneFake {
	return &tuneFake{fakeTarget: newFake(), tuned: map[string]string{}}
}

func (f *tuneFake) SetLinkTune(id, mode string) error {
	f.tuned[id] = mode
	return nil
}

func (f *tuneFake) TuningSummary() []string {
	return []string{"l0 mode=latency source=auto batch=1 switches=2"}
}

// TestParseLinkTune pins the LINK TUNE grammar: id + mode, mode
// case-insensitive and lowercased into Command.Tune.
func TestParseLinkTune(t *testing.T) {
	for _, tc := range []struct {
		line string
		mode string
	}{
		{"LINK TUNE wan throughput", "throughput"},
		{"link tune wan LATENCY", "latency"},
		{"LINK TUNE wan Auto", "auto"},
	} {
		cmd, err := Parse(tc.line)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.line, err)
		}
		if cmd.Verb != "LINK" || cmd.Kind != "TUNE" || cmd.LinkID != "wan" || cmd.Tune != tc.mode {
			t.Fatalf("Parse(%q) = %+v, want LINK TUNE wan %s", tc.line, cmd, tc.mode)
		}
	}
	for _, bad := range []string{
		"LINK TUNE",                    // no id, no mode
		"LINK TUNE wan",                // no mode
		"LINK TUNE wan warp",           // unknown mode
		"LINK TUNE wan latency please", // trailing junk
	} {
		if _, err := Parse(bad); !errors.Is(err, ErrSyntax) {
			t.Fatalf("Parse(%q) err = %v, want ErrSyntax", bad, err)
		}
	}
}

// TestParseListTuning pins LIST TUNING as a first-class LIST target.
func TestParseListTuning(t *testing.T) {
	cmd, err := Parse("LIST TUNING")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Verb != "LIST" || cmd.Kind != "TUNING" {
		t.Fatalf("Parse(LIST TUNING) = %+v", cmd)
	}
}

// TestApplyTuneVerbs drives both verbs through Apply: a TuneTarget gets
// the forwarded call, a bare Target gets a capability error.
func TestApplyTuneVerbs(t *testing.T) {
	f := newTuneFake()
	cmd, _ := Parse("LINK TUNE wan THROUGHPUT")
	if _, err := Apply(f, cmd); err != nil {
		t.Fatalf("Apply(LINK TUNE): %v", err)
	}
	if f.tuned["wan"] != "throughput" {
		t.Fatalf("tuned = %v, want wan→throughput", f.tuned)
	}
	cmd, _ = Parse("LIST TUNING")
	out, err := Apply(f, cmd)
	if err != nil || len(out) != 1 || !strings.Contains(out[0], "mode=latency") {
		t.Fatalf("Apply(LIST TUNING) = (%q, %v)", out, err)
	}

	bare := newFake()
	cmd, _ = Parse("LINK TUNE wan AUTO")
	if _, err := Apply(bare, cmd); err == nil {
		t.Fatal("LINK TUNE against a non-TuneTarget succeeded")
	}
	cmd, _ = Parse("LIST TUNING")
	if _, err := Apply(bare, cmd); err == nil {
		t.Fatal("LIST TUNING against a non-TuneTarget succeeded")
	}
}

// TestLinkTuneIdempotent pins that the client will retry LINK TUNE and
// LIST TUNING after ambiguous transport failures: both converge when
// replayed.
func TestLinkTuneIdempotent(t *testing.T) {
	for _, line := range []string{"LINK TUNE wan THROUGHPUT", "LIST TUNING"} {
		if !Idempotent(line) {
			t.Errorf("Idempotent(%q) = false, want true", line)
		}
	}
}
