package faults

import (
	"testing"

	"opendwarfs/internal/obs"
)

type staticInjector struct{ d Decision }

func (s staticInjector) Decide(bench, size, device string, attempt int) Decision { return s.d }

func TestCountedCountsByKind(t *testing.T) {
	reg := obs.NewRegistry()
	inj := Counted(staticInjector{Decision{
		Transient: true, Dropped: true, SlowFactor: 4, PowerDropout: true,
	}}, reg)
	want := Decision{Transient: true, Dropped: true, SlowFactor: 4, PowerDropout: true}
	for i := 0; i < 3; i++ {
		if d := inj.Decide("crc", "tiny", "gtx1080", 1); d != want {
			t.Fatalf("Counted changed the decision: %+v", d)
		}
	}
	for _, kind := range []string{"transient", "device_down", "straggler", "power_dropout"} {
		if n := reg.CounterValue(obs.Name("faults_injected_total", "kind", kind)); n != 3 {
			t.Fatalf("faults_injected_total{kind=%s} = %d, want 3", kind, n)
		}
	}
	// Clean decisions count nothing.
	clean := Counted(staticInjector{}, reg)
	clean.Decide("crc", "tiny", "gtx1080", 1)
	if n := reg.CounterValue(obs.Name("faults_injected_total", "kind", "transient")); n != 3 {
		t.Fatalf("clean decision bumped transient counter to %d", n)
	}
}

func TestCountedPassthroughOnNil(t *testing.T) {
	if Counted(nil, obs.NewRegistry()) != nil {
		t.Fatal("Counted(nil, reg) must stay nil")
	}
	inner := staticInjector{}
	if got := Counted(inner, nil); got != Injector(inner) {
		t.Fatal("Counted(inner, nil) must return inner unchanged")
	}
}
