package slo

import (
	"strings"
	"testing"
	"time"

	"opendwarfs/internal/obs"
	"opendwarfs/internal/obs/series"
)

// Rule names in Go sources must be snake_case constants — the obsnames
// analyzer checks exactly this shape at Threshold/BurnRate call sites.
const (
	testRuleBurn    = "failed_cells_burn"
	testRuleBacklog = "jobs_backlogged"
)

// harnessRig is a registry + fake-clocked recorder pair the engine
// tests drive sample by sample.
type harnessRig struct {
	reg   *obs.Registry
	rec   *series.Recorder
	nowNs int64
}

func newRig() *harnessRig {
	rig := &harnessRig{reg: obs.NewRegistry(), nowNs: 1_700_000_000_000_000_000}
	rig.rec = series.New(rig.reg, series.Options{
		Capacity: 64,
		Interval: time.Second,
		Clock:    func() time.Time { return time.Unix(0, rig.nowNs) },
	})
	return rig
}

// tick advances the fake clock one second and samples.
func (rig *harnessRig) tick() {
	rig.nowNs += int64(time.Second)
	rig.rec.Sample()
}

func TestBurnRateLifecycle(t *testing.T) {
	rig := newRig()
	failed := rig.reg.Counter("harness_failed_cells_total")
	firing := rig.reg.Gauge("alerts_firing")
	eng, err := NewEngine(rig.rec, []Rule{
		BurnRate(testRuleBurn, "harness_failed_cells_total", 0.5, 10*time.Second),
	}, firing)
	if err != nil {
		t.Fatal(err)
	}

	// Quiet baseline: two samples, no failures — ok.
	rig.tick()
	rig.tick()
	eng.Eval(rig.nowNs)
	if a := eng.Alerts(); a[0].State != StateOK {
		t.Fatalf("quiet state = %s, want ok", a[0].State)
	}

	// Burn: 3 failures/sec for a few ticks — fires, gauge goes to 1.
	for i := 0; i < 3; i++ {
		failed.Add(3)
		rig.tick()
		eng.Eval(rig.nowNs)
	}
	a := eng.Alerts()
	if a[0].State != StateFiring {
		t.Fatalf("burning state = %s (value %v), want firing", a[0].State, a[0].Value)
	}
	if a[0].Value <= 0.5 {
		t.Fatalf("firing alert carries value %v, want > 0.5", a[0].Value)
	}
	if firing.Value() != 1 {
		t.Fatalf("alerts_firing = %v, want 1", firing.Value())
	}
	if got := eng.Firing(); len(got) != 1 || got[0] != testRuleBurn {
		t.Fatalf("Firing() = %v", got)
	}

	// Quiesce: enough quiet samples push the windowed rate under the
	// limit — resolved, gauge back to 0.
	for i := 0; i < 15; i++ {
		rig.tick()
		eng.Eval(rig.nowNs)
	}
	a = eng.Alerts()
	if a[0].State != StateResolved {
		t.Fatalf("quiesced state = %s (value %v), want resolved", a[0].State, a[0].Value)
	}
	if firing.Value() != 0 {
		t.Fatalf("alerts_firing after resolve = %v, want 0", firing.Value())
	}
	if a[0].FiredCnt != 1 {
		t.Fatalf("fired_total = %d, want 1", a[0].FiredCnt)
	}

	// Re-burn: resolved → firing again, fired_total increments.
	for i := 0; i < 3; i++ {
		failed.Add(5)
		rig.tick()
		eng.Eval(rig.nowNs)
	}
	a = eng.Alerts()
	if a[0].State != StateFiring || a[0].FiredCnt != 2 {
		t.Fatalf("re-burn state = %s fired=%d, want firing/2", a[0].State, a[0].FiredCnt)
	}
}

func TestThresholdForPending(t *testing.T) {
	rig := newRig()
	running := rig.reg.Gauge("jobs_running")
	eng, err := NewEngine(rig.rec, []Rule{
		Threshold(testRuleBacklog, "jobs_running", OpGE, 4, 3*time.Second),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	rig.tick()
	rig.tick()
	running.Set(5)
	rig.tick()
	eng.Eval(rig.nowNs)
	if a := eng.Alerts(); a[0].State != StatePending {
		t.Fatalf("fresh breach = %s, want pending (for=3s)", a[0].State)
	}

	// Condition lapses before For elapses: back to ok, never fired.
	running.Set(1)
	rig.tick()
	eng.Eval(rig.nowNs)
	if a := eng.Alerts(); a[0].State != StateOK || a[0].FiredCnt != 0 {
		t.Fatalf("lapsed breach = %s fired=%d, want ok/0", a[0].State, a[0].FiredCnt)
	}

	// Sustained breach: pending for 3 ticks, then firing.
	running.Set(6)
	rig.tick()
	eng.Eval(rig.nowNs)
	if a := eng.Alerts(); a[0].State != StatePending {
		t.Fatalf("sustained t0 = %s, want pending", a[0].State)
	}
	rig.tick()
	eng.Eval(rig.nowNs)
	rig.tick()
	eng.Eval(rig.nowNs)
	rig.tick()
	eng.Eval(rig.nowNs)
	if a := eng.Alerts(); a[0].State != StateFiring {
		t.Fatalf("sustained 3s+ = %s, want firing", a[0].State)
	}
}

func TestThresholdImmediateFire(t *testing.T) {
	rig := newRig()
	q := rig.reg.Counter("harness_quarantines_total")
	eng, _ := NewEngine(rig.rec, []Rule{
		Threshold("any_quarantine", "harness_quarantines_total", OpGE, 1, 0),
	}, nil)
	rig.tick()
	rig.tick()
	eng.Eval(rig.nowNs)
	if a := eng.Alerts(); a[0].State != StateOK {
		t.Fatalf("pre-quarantine = %s", a[0].State)
	}
	q.Inc()
	rig.tick()
	eng.Eval(rig.nowNs)
	if a := eng.Alerts(); a[0].State != StateFiring {
		t.Fatalf("post-quarantine = %s, want firing (for=0)", a[0].State)
	}
}

func TestNoDataIsOK(t *testing.T) {
	rig := newRig()
	eng, _ := NewEngine(rig.rec, []Rule{
		Threshold("ghost_metric", "does_not_exist", OpGT, 0, 0),
	}, nil)
	rig.tick()
	rig.tick()
	eng.Eval(rig.nowNs)
	a := eng.Alerts()
	if a[0].State != StateOK || a[0].WindowOK {
		t.Fatalf("missing metric = %s dataOK=%v, want ok/false", a[0].State, a[0].WindowOK)
	}
}

// loadRulesGood and loadRulesBad are TestLoadRules' rule files, and
// FuzzLoadRules' seeds.
const loadRulesGood = `{"rules": [
  {"name": "failed_cells_burn", "kind": "burn_rate",
   "metric": "harness_failed_cells_total", "value": 0.5, "window_sec": 30},
  {"name": "jobs_backlogged", "kind": "threshold",
   "metric": "jobs_running", "op": "ge", "value": 4, "for_sec": 10,
   "severity": "warn"}
]}`

var loadRulesBad = []string{
	`{"rules":[{"name":"BadName","kind":"threshold","metric":"m","value":1}]}`,
	`{"rules":[{"name":"kebab-case","kind":"threshold","metric":"m","value":1}]}`,
	`{"rules":[{"name":"ok_name","kind":"threshold","metric":"","value":1}]}`,
	`{"rules":[{"name":"ok_name","kind":"nonsense","metric":"m","value":1}]}`,
	`{"rules":[{"name":"ok_name","kind":"burn_rate","metric":"m","value":1}]}`,
	`{"rules":[{"name":"ok_name","kind":"threshold","metric":"m","op":"spaceship","value":1}]}`,
	`{"rules":[{"name":"dup","kind":"threshold","metric":"m","value":1},
	           {"name":"dup","kind":"threshold","metric":"m","value":2}]}`,
	`{"rules":[{"name":"ok_name","kind":"threshold","metric":"m","value":1,"bogus_field":true}]}`,
	// Durations: negative, and past what a time.Duration holds — 1e10 s
	// once wrapped to a negative For that fired on the first tick.
	`{"rules":[{"name":"ok_name","kind":"threshold","metric":"m","value":1,"for_sec":-5}]}`,
	`{"rules":[{"name":"ok_name","kind":"threshold","metric":"m","value":1,"for_sec":1e10}]}`,
	`{"rules":[{"name":"ok_name","kind":"burn_rate","metric":"m","value":1,"window_sec":1e10}]}`,
}

func TestLoadRules(t *testing.T) {
	rules, err := LoadRules(strings.NewReader(loadRulesGood))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("loaded %d rules", len(rules))
	}
	if rules[0].Window != 30*time.Second || rules[1].For != 10*time.Second {
		t.Fatalf("durations not decoded: %v / %v", rules[0].Window, rules[1].For)
	}
	if rules[1].Severity != "warn" || rules[1].Op != OpGE {
		t.Fatalf("fields not decoded: %+v", rules[1])
	}

	for _, src := range loadRulesBad {
		_, err := LoadRules(strings.NewReader(src))
		if err == nil {
			t.Errorf("LoadRules accepted %s", src)
			continue
		}
		// A duration is refused by the field that holds it.
		for _, field := range []string{"for_sec", "window_sec"} {
			if strings.Contains(src, field) && !strings.Contains(err.Error(), field) {
				t.Errorf("LoadRules(%s): error %q does not name %s", src, err, field)
			}
		}
	}
}

// FuzzLoadRules feeds arbitrary rule files to LoadRules. Every rule it
// accepts must pass Validate, never wait a negative time, average a
// burn rate over a positive window, and build an engine. Nothing may
// panic.
func FuzzLoadRules(f *testing.F) {
	f.Add(loadRulesGood)
	for _, src := range loadRulesBad {
		f.Add(src)
	}
	rig := newRig()
	f.Fuzz(func(t *testing.T, src string) {
		rules, err := LoadRules(strings.NewReader(src))
		if err != nil {
			return
		}
		for _, r := range rules {
			if err := r.Validate(); err != nil {
				t.Fatalf("accepted rule fails Validate: %v", err)
			}
			if r.For < 0 {
				t.Fatalf("rule %s: For = %v", r.Name, r.For)
			}
			if r.Kind == KindBurnRate && r.Window <= 0 {
				t.Fatalf("burn_rate rule %s: Window = %v", r.Name, r.Window)
			}
		}
		if _, err := NewEngine(rig.rec, rules, nil); err != nil {
			t.Fatalf("NewEngine refused loaded rules: %v", err)
		}
	})
}

func TestEngineRejectsBadRules(t *testing.T) {
	rig := newRig()
	if _, err := NewEngine(rig.rec, []Rule{{Name: "Bad", Kind: KindThreshold, Metric: "m"}}, nil); err == nil {
		t.Fatal("engine accepted non-snake rule name")
	}
	dup := Threshold("same_name", "m", OpGT, 1, 0)
	if _, err := NewEngine(rig.rec, []Rule{dup, dup}, nil); err == nil {
		t.Fatal("engine accepted duplicate rule names")
	}
	if _, err := NewEngine(rig.rec, []Rule{Threshold("negative_for", "m", OpGT, 1, -time.Second)}, nil); err == nil {
		t.Fatal("engine accepted a negative For")
	}
}
