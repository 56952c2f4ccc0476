// Package slo evaluates declarative alert rules against the trailing
// metric history a series.Recorder retains. Two rule kinds cover the
// paper harness's operational questions: threshold ("is this gauge /
// counter / histogram count beyond a limit right now, sustained for N
// seconds?") and burn_rate ("is this counter growing faster than X per
// second averaged over the last W seconds?").
//
// Rules come from two places with one validation path: Go callers use
// the Threshold / BurnRate constructors with const snake_case names
// (the obsnames analyzer enforces this statically, exactly as it does
// for metric names), and operators load JSON rule files (-alerts on
// dwarfserve) which LoadRules validates with the same name grammar at
// load time.
//
// The engine is clock-free: Eval takes the evaluation timestamp from
// its caller (the sampler loop passes the sample's clock), so the
// package stays deterministic under the detrand analyzer and in tests.
package slo

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"sync"
	"time"

	"opendwarfs/internal/obs"
	"opendwarfs/internal/obs/series"
)

// Op is a comparison operator in a rule condition.
type Op string

const (
	OpGT Op = "gt"
	OpGE Op = "ge"
	OpLT Op = "lt"
	OpLE Op = "le"
)

func (o Op) holds(v, limit float64) bool {
	switch o {
	case OpGE:
		return v >= limit
	case OpLT:
		return v < limit
	case OpLE:
		return v <= limit
	default: // OpGT and the zero value
		return v > limit
	}
}

// Rule kinds.
const (
	KindThreshold = "threshold"
	KindBurnRate  = "burn_rate"
)

// Rule is one declarative alert condition.
type Rule struct {
	// Name identifies the rule: snake_case, unique within an engine.
	Name string `json:"name"`
	// Kind selects the condition: KindThreshold compares the metric's
	// latest sampled value (counter absolute, gauge value, histogram
	// observation count); KindBurnRate compares a counter's per-second
	// rate averaged over Window.
	Kind string `json:"kind"`
	// Metric is the obs registry metric the condition reads.
	Metric string `json:"metric"`
	// Op compares the observed value against Value (default gt).
	Op Op `json:"op,omitempty"`
	// Value is the limit the condition compares against.
	Value float64 `json:"value"`
	// Window is the burn-rate averaging window (default 60s).
	Window time.Duration `json:"-"`
	// For keeps a true condition in StatePending until it has held this
	// long; zero fires immediately, and a negative For is invalid.
	For time.Duration `json:"-"`
	// Severity is a free-form label surfaced on /v1/alerts ("warn",
	// "page", ...). Informational only.
	Severity string `json:"severity,omitempty"`
}

// ruleNameRe is the rule-name grammar — identical to the metric-name
// grammar the obsnames analyzer enforces.
var ruleNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// Threshold builds a threshold rule. name must be a snake_case constant
// at the call site (statically checked by the obsnames analyzer);
// sustain is how long the condition must hold before firing.
func Threshold(name, metric string, op Op, value float64, sustain time.Duration) Rule {
	return Rule{Name: name, Kind: KindThreshold, Metric: metric, Op: op, Value: value, For: sustain}
}

// BurnRate builds a burn-rate rule: fire when metric (a counter) grows
// faster than ratePerSec averaged over window. name must be a
// snake_case constant at the call site.
func BurnRate(name, metric string, ratePerSec float64, window time.Duration) Rule {
	return Rule{Name: name, Kind: KindBurnRate, Metric: metric, Op: OpGT, Value: ratePerSec, Window: window}
}

// Validate checks one rule's shape; the error names the offending field.
func (r Rule) Validate() error {
	if !ruleNameRe.MatchString(r.Name) {
		return fmt.Errorf("rule name %q is not snake_case", r.Name)
	}
	if r.Metric == "" {
		return fmt.Errorf("rule %s: empty metric", r.Name)
	}
	if r.For < 0 {
		return fmt.Errorf("rule %s: negative for duration %v", r.Name, r.For)
	}
	switch r.Kind {
	case KindThreshold:
	case KindBurnRate:
		if r.Window <= 0 {
			return fmt.Errorf("rule %s: burn_rate needs a positive window", r.Name)
		}
	default:
		return fmt.Errorf("rule %s: unknown kind %q", r.Name, r.Kind)
	}
	switch r.Op {
	case "", OpGT, OpGE, OpLT, OpLE:
	default:
		return fmt.Errorf("rule %s: unknown op %q", r.Name, r.Op)
	}
	return nil
}

// jsonRule is the file representation: durations in seconds, so rule
// files stay plain JSON numbers.
type jsonRule struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind"`
	Metric    string  `json:"metric"`
	Op        string  `json:"op"`
	Value     float64 `json:"value"`
	WindowSec float64 `json:"window_sec"`
	ForSec    float64 `json:"for_sec"`
	Severity  string  `json:"severity"`
}

// LoadRules parses a JSON rule file:
//
//	{"rules": [
//	  {"name": "failed_cells_burn", "kind": "burn_rate",
//	   "metric": "harness_failed_cells_total", "value": 0.5, "window_sec": 30},
//	  {"name": "jobs_backlogged", "kind": "threshold",
//	   "metric": "jobs_running", "op": "ge", "value": 4, "for_sec": 10,
//	   "severity": "warn"}
//	]}
//
// Every rule is validated with the same name grammar the analyzer
// enforces on Go constructors; duplicates are rejected.
func LoadRules(rd io.Reader) ([]Rule, error) {
	var f struct {
		Rules []jsonRule `json:"rules"`
	}
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("alert rules: %w", err)
	}
	seen := map[string]bool{}
	rules := make([]Rule, 0, len(f.Rules))
	for _, jr := range f.Rules {
		window, err := seconds(jr.Name, "window_sec", jr.WindowSec)
		if err != nil {
			return nil, err
		}
		sustain, err := seconds(jr.Name, "for_sec", jr.ForSec)
		if err != nil {
			return nil, err
		}
		r := Rule{
			Name:     jr.Name,
			Kind:     jr.Kind,
			Metric:   jr.Metric,
			Op:       Op(jr.Op),
			Value:    jr.Value,
			Window:   window,
			For:      sustain,
			Severity: jr.Severity,
		}
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		rules = append(rules, r)
	}
	return rules, nil
}

// seconds converts a rule file's duration field. Negative seconds, and
// seconds past what a time.Duration holds (about 292 years), are refused:
// converted unchecked, the latter would wrap to a negative duration.
func seconds(rule, field string, sec float64) (time.Duration, error) {
	ns := sec * float64(time.Second)
	if !(ns >= 0 && ns < math.MaxInt64) {
		return 0, fmt.Errorf("rule %s: %s %v is negative or out of range", rule, field, sec)
	}
	return time.Duration(ns), nil
}

// State is an alert's lifecycle position.
type State string

const (
	StateOK       State = "ok"       // never fired, condition false
	StatePending  State = "pending"  // condition true, For not yet elapsed
	StateFiring   State = "firing"   // condition true (and sustained)
	StateResolved State = "resolved" // fired earlier, condition now false
)

// Alert is one rule's current evaluation, the /v1/alerts row.
type Alert struct {
	Rule     Rule    `json:"rule"`
	State    State   `json:"state"`
	Value    float64 `json:"value"`            // last evaluated condition input
	SinceNs  int64   `json:"since_unix_ns"`    // when the current state began
	FiredCnt int64   `json:"fired_total"`      // lifetime fire transitions
	WindowOK bool    `json:"window_populated"` // condition had data to evaluate
}

// ruleState is the engine's mutable per-rule record.
type ruleState struct {
	rule     Rule
	state    State
	sinceNs  int64
	pendNs   int64 // when the condition first held (pending start)
	value    float64
	dataOK   bool
	firedCnt int64
}

// Engine evaluates a fixed rule set against a recorder. Eval is called
// from the sampler loop after each sample; Alerts and Firing serve the
// HTTP layer. Safe for concurrent use.
type Engine struct {
	rec    *series.Recorder
	firing *obs.Gauge // alerts_firing, updated on every Eval (nil ok)

	mu    sync.Mutex
	rules []*ruleState
}

// NewEngine builds an engine over rec with the given rules. Invalid
// rules are rejected here so a bad -alerts file fails at startup, not
// at first evaluation. firing, if non-nil, tracks the count of firing
// alerts as a gauge.
func NewEngine(rec *series.Recorder, rules []Rule, firing *obs.Gauge) (*Engine, error) {
	e := &Engine{rec: rec, firing: firing}
	seen := map[string]bool{}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		e.rules = append(e.rules, &ruleState{rule: r, state: StateOK})
	}
	sort.Slice(e.rules, func(i, j int) bool { return e.rules[i].rule.Name < e.rules[j].rule.Name })
	return e, nil
}

// Eval evaluates every rule against the recorder's current history.
// nowNs is the evaluation timestamp (callers pass their clock — the
// sampler loop uses the sample tick's time), keeping the engine
// deterministic under injected clocks.
func (e *Engine) Eval(nowNs int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	firing := 0
	for _, rs := range e.rules {
		var v float64
		var ok bool
		switch rs.rule.Kind {
		case KindBurnRate:
			v, ok = e.rec.CounterRate(rs.rule.Metric, rs.rule.Window)
		default:
			v, ok = e.rec.LastValue(rs.rule.Metric)
		}
		rs.value, rs.dataOK = v, ok
		cond := ok && rs.rule.Op.holds(v, rs.rule.Value)
		switch {
		case cond && (rs.state == StateOK || rs.state == StateResolved):
			rs.pendNs = nowNs
			if rs.rule.For > 0 {
				rs.state, rs.sinceNs = StatePending, nowNs
			} else {
				rs.state, rs.sinceNs = StateFiring, nowNs
				rs.firedCnt++
			}
		case cond && rs.state == StatePending:
			if nowNs-rs.pendNs >= rs.rule.For.Nanoseconds() {
				rs.state, rs.sinceNs = StateFiring, nowNs
				rs.firedCnt++
			}
		case !cond && rs.state == StateFiring:
			rs.state, rs.sinceNs = StateResolved, nowNs
		case !cond && rs.state == StatePending:
			rs.state, rs.sinceNs = StateOK, nowNs
		}
		if rs.state == StateFiring {
			firing++
		}
	}
	e.firing.Set(float64(firing))
}

// Alerts returns every rule's current evaluation, sorted by rule name.
func (e *Engine) Alerts() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.rules))
	for _, rs := range e.rules {
		out = append(out, Alert{
			Rule:     rs.rule,
			State:    rs.state,
			Value:    rs.value,
			SinceNs:  rs.sinceNs,
			FiredCnt: rs.firedCnt,
			WindowOK: rs.dataOK,
		})
	}
	return out
}

// Firing returns the names of currently firing rules, sorted.
func (e *Engine) Firing() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for _, rs := range e.rules {
		if rs.state == StateFiring {
			out = append(out, rs.rule.Name)
		}
	}
	return out
}
