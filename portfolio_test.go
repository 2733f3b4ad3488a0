package sdpfloor

import (
	"reflect"
	"testing"
)

// TestResolveContendersDefaults pins what a contender-less portfolio race
// runs with: the contender list and the knobs it fills in for each size
// bucket, on both sides of every bucket boundary.
func TestResolveContendersDefaults(t *testing.T) {
	cases := []struct {
		n            int
		contenders   []Method
		alpha0, mu0  float64
		cooling      float64
		movesPerTemp int
	}{
		{10, []Method{MethodSDP, MethodSA, MethodAnalytic}, 0.5, 8, 0.90, 0},
		{40, []Method{MethodSDP, MethodSA, MethodAnalytic}, 0.5, 8, 0.90, 0},
		{41, []Method{MethodSDP, MethodSA}, 512, 0, 0.93, 0},
		{120, []Method{MethodSDP, MethodSA}, 512, 0, 0.93, 0},
		{121, []Method{MethodSDPHier, MethodSA}, 1024, 0, 0.95, 60},
		{300, []Method{MethodSDPHier, MethodSA}, 1024, 0, 0.95, 60},
	}
	for _, c := range cases {
		nl := &Netlist{Modules: make([]Module, c.n)}
		got, cfg, err := resolveContenders(nl, Config{Method: MethodPortfolio})
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if !reflect.DeepEqual(got, c.contenders) {
			t.Errorf("n=%d: contenders %v, want %v", c.n, got, c.contenders)
		}
		if cfg.Global.Alpha0 != c.alpha0 || cfg.Global.ADMMMu0 != c.mu0 ||
			cfg.Anneal.CoolingRate != c.cooling || cfg.Anneal.MovesPerTemp != c.movesPerTemp {
			t.Errorf("n=%d: Alpha0 %v ADMMMu0 %v CoolingRate %v MovesPerTemp %d, want %v %v %v %d",
				c.n, cfg.Global.Alpha0, cfg.Global.ADMMMu0, cfg.Anneal.CoolingRate, cfg.Anneal.MovesPerTemp,
				c.alpha0, c.mu0, c.cooling, c.movesPerTemp)
		}
	}
}

// TestResolveContendersKeepsCallerSettings checks that the size defaults
// fill only fields the caller left at zero, and that an explicit contender
// list races with the caller's config untouched.
func TestResolveContendersKeepsCallerSettings(t *testing.T) {
	for _, n := range []int{10, 300} {
		nl := &Netlist{Modules: make([]Module, n)}
		in := Config{Method: MethodPortfolio}
		in.Global.Alpha0 = 3
		in.Anneal.CoolingRate = 0.8
		_, cfg, err := resolveContenders(nl, in)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if cfg.Global.Alpha0 != 3 || cfg.Anneal.CoolingRate != 0.8 {
			t.Errorf("n=%d: caller settings overwritten: Alpha0 %v CoolingRate %v",
				n, cfg.Global.Alpha0, cfg.Anneal.CoolingRate)
		}
	}

	nl := &Netlist{Modules: make([]Module, 10)}
	in := Config{Method: MethodPortfolio}
	in.Portfolio.Contenders = []Method{MethodQP, MethodSA}
	got, cfg, err := resolveContenders(nl, in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in.Portfolio.Contenders) {
		t.Errorf("contenders %v, want %v", got, in.Portfolio.Contenders)
	}
	if !reflect.DeepEqual(cfg, in) {
		t.Errorf("explicit contender list changed the config:\n got %+v\nwant %+v", cfg, in)
	}
}
