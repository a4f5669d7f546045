package snowcap_test

import (
	"testing"
	"time"

	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/snowcap"
	"chameleon/internal/traffic"
)

func TestApplyReachesFinalState(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := snowcap.Apply(s.Net, s.Commands, []int{0}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range s.Graph.Internal() {
		best, ok := s.Net.Best(n, s.Prefix)
		if !ok || best.Egress == s.E1 {
			t.Errorf("node %d did not leave e1", n)
		}
	}
	if res.Duration() <= 0 {
		t.Error("no time elapsed")
	}
}

// TestSnowcapCausesTransientDrops reproduces Fig. 1's left side: applying
// the command directly causes transient black holes while Chameleon's
// plans (tested in internal/runtime) do not.
func TestSnowcapCausesTransientDrops(t *testing.T) {
	dropped := false
	// BGP message ordering depends on jitter; across a few seeds the
	// direct application must show at least one transient violation.
	for seed := uint64(1); seed <= 10 && !dropped; seed++ {
		s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		start := s.Net.Now()
		s.Net.RecordInitialState(s.Prefix)
		if _, err := snowcap.Apply(s.Net, s.Commands, []int{0}, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		tr := s.Net.Trace(s.Prefix)
		m := traffic.Measure(tr, s.Graph.Internal(), nil, traffic.Options{
			RatePerNode: 1500, Step: 0.01, From: start.Seconds(), To: s.Net.Now().Seconds(),
		})
		if m.TotalDropped > 0 {
			dropped = true
		}
	}
	if !dropped {
		t.Error("Snowcap-style direct application never dropped packets in 10 seeds — transient modeling broken?")
	}
}

func TestApplyRejectsUnconverged(t *testing.T) {
	s := scenario.RunningExample()
	// A message in flight: BGP has not settled.
	s.Net.InjectExternalRoute(s.Graph.MustNode("ext1"), sim.Announcement{Prefix: s.Prefix})
	if _, err := snowcap.Apply(s.Net, s.Commands, []int{0}, time.Second); err == nil {
		t.Fatal("expected error on unconverged network")
	}
}

func TestApplyBadOrderIndex(t *testing.T) {
	s := scenario.RunningExample()
	if _, err := snowcap.Apply(s.Net, s.Commands, []int{5}, time.Second); err == nil {
		t.Fatal("expected error on out-of-range order")
	}
}
