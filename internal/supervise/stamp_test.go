package supervise

import (
	"testing"
	"time"
)

// TestStampNeverIdle: a stamp taken in the supervisor's first nanosecond
// is not the 0 that means idle, so a unit of work begun at once still
// arms the stall clock.
func TestStampNeverIdle(t *testing.T) {
	if got := stampAfter(0); got == 0 {
		t.Fatal("a stamp at the supervisor's epoch reads 0 (idle)")
	}
	s := &Supervisor{epoch: time.Now()}
	inst := &Instance{w: &Worker{sup: s}}
	inst.Working()
	if inst.busy.Load() == 0 {
		t.Fatal("Working on a fresh supervisor left the instance idle")
	}
	inst.Idle()
	if inst.busy.Load() != 0 {
		t.Fatal("Idle did not clear the stamp")
	}
}
