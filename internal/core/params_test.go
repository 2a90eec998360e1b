package core_test

import (
	"testing"

	"vnetp/internal/vnetpsim"
)

func TestDefaultParamsMatchTable1(t *testing.T) {
	p := vnetpsim.DefaultParams()
	if p.Mode != vnetpsim.Adaptive {
		t.Error("Table 1: mode must be adaptive")
	}
	if p.AlphaL != 1e3 || p.AlphaU != 1e4 {
		t.Errorf("Table 1: alpha_l=%v alpha_u=%v", p.AlphaL, p.AlphaU)
	}
	if p.Omega.Milliseconds() != 5 {
		t.Errorf("Table 1: omega = %v", p.Omega)
	}
	if p.NDispatchers != 1 {
		t.Errorf("Table 1: n_dispatchers = %d", p.NDispatchers)
	}
	if p.Yield.String() != "immediate" {
		t.Errorf("Table 1: yield = %v", p.Yield)
	}
	if p.AlphaU <= p.AlphaL {
		t.Error("hysteresis requires alpha_u > alpha_l")
	}
}

func TestModeString(t *testing.T) {
	if vnetpsim.GuestDriven.String() != "guest-driven" || vnetpsim.VMMDriven.String() != "VMM-driven" ||
		vnetpsim.Adaptive.String() != "adaptive" || vnetpsim.Mode(42).String() != "unknown" {
		t.Fatal("mode strings")
	}
}
