package harness

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"opendwarfs/internal/papi"
	"opendwarfs/internal/scibench"
	"opendwarfs/internal/sim"
)

// readMeasurement reads raw in one pass, without reflection, when it is in
// the form EncodeMeasurement writes. None of the encoded types has a JSON
// tag or a custom marshaler, so that form is every exported field, in
// declaration order, with no whitespace and nothing after the final '}'.
// It reports false at the first byte outside that form, and
// DecodeMeasurement then decodes raw with encoding/json. Where it accepts,
// it decodes the value json.Unmarshal does: numbers through the same
// strconv calls, strings that need unquoting through json.Unmarshal of the
// one token, null as a nil slice or map and [] as an empty one.
//
// A field added to an encoded type needs its line here; until then every
// stored cell takes the slow path, and TestCanonicalReaderReadsFullGrid
// fails.
func readMeasurement(raw []byte) (*Measurement, bool) {
	d := cellReader{b: raw, ok: true}
	m := &Measurement{}
	d.str(`{"Benchmark":`, &m.Benchmark)
	d.str(`,"Dwarf":`, &m.Dwarf)
	d.str(`,"Size":`, &m.Size)
	m.Device = d.device(`,"Device":`)
	d.bool(`,"Functional":`, &m.Functional)
	d.bool(`,"Verified":`, &m.Verified)
	d.int(`,"Iterations":`, &m.Iterations)
	d.int64(`,"FootprintBytes":`, &m.FootprintBytes)
	d.int(`,"KernelLaunches":`, &m.KernelLaunches)
	d.floats(`,"KernelNs":`, &m.KernelNs)
	d.floats(`,"TransferNs":`, &m.TransferNs)
	d.floats(`,"EnergyJ":`, &m.EnergyJ)
	d.summary(`,"Kernel":`, &m.Kernel)
	d.summary(`,"Transfer":`, &m.Transfer)
	d.summary(`,"Energy":`, &m.Energy)
	d.counters(`,"Counters":`, &m.Counters)
	d.int(`,"MeterScope":`, (*int)(&m.MeterScope))
	m.Profiles = d.profiles(`,"Profiles":`)
	d.diagnostics(`,"Diagnostics":`, &m.Diagnostics)
	d.lit(`}`)
	return m, d.ok && len(d.b) == 0
}

func (d *cellReader) device(key string) *sim.DeviceSpec {
	d.lit(key)
	s := &sim.DeviceSpec{}
	d.str(`{"ID":`, &s.ID)
	d.str(`,"Name":`, &s.Name)
	d.str(`,"Vendor":`, &s.Vendor)
	d.int(`,"Class":`, (*int)(&s.Class))
	d.str(`,"Series":`, &s.Series)
	d.int(`,"CoreCount":`, &s.CoreCount)
	d.str(`,"CoreKind":`, &s.CoreKind)
	d.int(`,"CUs":`, &s.CUs)
	d.int(`,"Lanes":`, &s.Lanes)
	d.float(`,"MinClockMHz":`, &s.MinClockMHz)
	d.float(`,"MaxClockMHz":`, &s.MaxClockMHz)
	d.float(`,"TurboClockMHz":`, &s.TurboClockMHz)
	d.float(`,"L1KiB":`, &s.L1KiB)
	d.float(`,"L2KiB":`, &s.L2KiB)
	d.float(`,"L3KiB":`, &s.L3KiB)
	d.float(`,"TDPWatts":`, &s.TDPWatts)
	d.float(`,"IdleWatts":`, &s.IdleWatts)
	d.str(`,"LaunchDate":`, &s.LaunchDate)
	d.float(`,"PeakGFLOPS":`, &s.PeakGFLOPS)
	d.float(`,"VectorEff":`, &s.VectorEff)
	d.float(`,"ScalarIPC":`, &s.ScalarIPC)
	d.float(`,"DRAMBandwidthGBs":`, &s.DRAMBandwidthGBs)
	d.float(`,"DRAMLatencyNs":`, &s.DRAMLatencyNs)
	d.float(`,"MLP":`, &s.MLP)
	d.float(`,"LaunchOverheadUs":`, &s.LaunchOverheadUs)
	d.float(`,"TransferGBs":`, &s.TransferGBs)
	d.float(`,"CVBase":`, &s.CVBase)
	d.lit(`}`)
	return s
}

func (d *cellReader) summary(key string, s *scibench.Summary) {
	d.lit(key)
	d.int(`{"N":`, &s.N)
	d.float(`,"Mean":`, &s.Mean)
	d.float(`,"SD":`, &s.SD)
	d.float(`,"CV":`, &s.CV)
	d.float(`,"Min":`, &s.Min)
	d.float(`,"Q1":`, &s.Q1)
	d.float(`,"Median":`, &s.Median)
	d.float(`,"Q3":`, &s.Q3)
	d.float(`,"Max":`, &s.Max)
	d.float(`,"CI95Lo":`, &s.CI95Lo)
	d.float(`,"CI95Hi":`, &s.CI95Hi)
	d.lit(`}`)
}

func (d *cellReader) counters(key string, c *papi.Set) {
	d.lit(key)
	d.lit(`{"Values":`)
	c.Values = d.counterValues()
	d.float(`,"IPC":`, &c.IPC)
	d.float(`,"L3RequestRate":`, &c.L3RequestRate)
	d.float(`,"L3MissRate":`, &c.L3MissRate)
	d.float(`,"L3MissRatio":`, &c.L3MissRatio)
	d.float(`,"TLBMissRate":`, &c.TLBMissRate)
	d.lit(`}`)
}

// counterValues reads papi.Set.Values. A repeated name keeps its last
// value, as in encoding/json.
func (d *cellReader) counterValues() map[papi.Counter]float64 {
	if d.skip(`null`) {
		return nil
	}
	d.lit(`{`)
	vs := map[papi.Counter]float64{}
	if d.skip(`}`) {
		return vs
	}
	for d.ok {
		name := d.string()
		d.lit(`:`)
		vs[papi.Counter(name)] = d.f64()
		if !d.skip(`,`) {
			break
		}
	}
	d.lit(`}`)
	return vs
}

func (d *cellReader) profiles(key string) []*sim.KernelProfile {
	d.lit(key)
	if d.skip(`null`) {
		return nil
	}
	d.lit(`[`)
	ps := []*sim.KernelProfile{}
	if d.skip(`]`) {
		return ps
	}
	for d.ok {
		p := &sim.KernelProfile{}
		d.str(`{"Name":`, &p.Name)
		d.int64(`,"WorkItems":`, &p.WorkItems)
		d.float(`,"FlopsPerItem":`, &p.FlopsPerItem)
		d.float(`,"IntOpsPerItem":`, &p.IntOpsPerItem)
		d.float(`,"LoadBytesPerItem":`, &p.LoadBytesPerItem)
		d.float(`,"StoreBytesPerItem":`, &p.StoreBytesPerItem)
		d.int64(`,"WorkingSetBytes":`, &p.WorkingSetBytes)
		d.int(`,"Pattern":`, (*int)(&p.Pattern))
		d.float(`,"TemporalReuse":`, &p.TemporalReuse)
		d.float(`,"BranchesPerItem":`, &p.BranchesPerItem)
		d.float(`,"Divergence":`, &p.Divergence)
		d.float(`,"Coalescing":`, &p.Coalescing)
		d.bool(`,"Vectorizable":`, &p.Vectorizable)
		d.float(`,"SerialFraction":`, &p.SerialFraction)
		d.lit(`}`)
		ps = append(ps, p)
		if !d.skip(`,`) {
			break
		}
	}
	d.lit(`]`)
	return ps
}

func (d *cellReader) diagnostics(key string, g *scibench.Diagnostics) {
	d.lit(key)
	d.float(`{"KSStatistic":`, &g.KSStatistic)
	d.bool(`,"NonNormal":`, &g.NonNormal)
	d.float(`,"Lag1":`, &g.Lag1)
	d.bool(`,"Autocorrelated":`, &g.Autocorrelated)
	d.float(`,"OutlierFrac":`, &g.OutlierFrac)
	d.lit(`}`)
}

// array reads a JSON array, calling elem to read each element. A null
// fails.
func (d *cellReader) array(key string, elem func()) {
	d.lit(key)
	d.lit(`[`)
	if d.skip(`]`) {
		return
	}
	for d.ok {
		elem()
		if !d.skip(`,`) {
			break
		}
	}
	d.lit(`]`)
}

// cellReader consumes b from the front. ok turns false at the first byte
// outside the canonical form; b is then empty, so every later call fails
// at once, and what the reader returns is discarded.
type cellReader struct {
	b  []byte
	ok bool
}

func (d *cellReader) fail() {
	d.ok, d.b = false, nil
}

// skip consumes s if it comes next, and reports whether it did.
func (d *cellReader) skip(s string) bool {
	if len(d.b) < len(s) || string(d.b[:len(s)]) != s {
		return false
	}
	d.b = d.b[len(s):]
	return true
}

// lit consumes s, which must come next.
func (d *cellReader) lit(s string) {
	if !d.skip(s) {
		d.fail()
	}
}

func (d *cellReader) str(key string, p *string) {
	d.lit(key)
	*p = d.string()
}

func (d *cellReader) bool(key string, p *bool) {
	d.lit(key)
	if *p = d.skip(`true`); !*p {
		d.lit(`false`)
	}
}

// int reads an int field as encoding/json does: strconv.ParseInt at the
// field's width, which refuses fractions, exponents and overflow.
func (d *cellReader) int(key string, p *int) {
	d.lit(key)
	*p = int(d.integer(strconv.IntSize))
}

func (d *cellReader) int64(key string, p *int64) {
	d.lit(key)
	*p = d.integer(64)
}

func (d *cellReader) integer(bits int) int64 {
	n, err := strconv.ParseInt(string(d.number()), 10, bits)
	if err != nil {
		d.fail()
	}
	return n
}

func (d *cellReader) float(key string, p *float64) {
	d.lit(key)
	*p = d.f64()
}

// f64 reads a float64 as encoding/json does: strconv.ParseFloat, which
// refuses a value out of range.
func (d *cellReader) f64() float64 {
	f, err := strconv.ParseFloat(string(d.number()), 64)
	if err != nil {
		d.fail()
	}
	return f
}

// floats reads a sample vector into a slice allocated once, at its exact
// length: numbers hold no ',' or ']', so the commas before the first ']'
// count its elements.
func (d *cellReader) floats(key string, p *[]float64) {
	d.lit(key)
	if d.skip(`null`) {
		return
	}
	d.lit(`[`)
	if d.skip(`]`) {
		*p = []float64{}
		return
	}
	end := bytes.IndexByte(d.b, ']')
	if end < 0 {
		d.fail()
		return
	}
	xs := make([]float64, 1+bytes.Count(d.b[:end], []byte{','}))
	for i := range xs {
		if i > 0 {
			d.lit(`,`)
		}
		xs[i] = d.f64()
	}
	d.lit(`]`)
	*p = xs
}

// number consumes a JSON number and returns its text.
func (d *cellReader) number() []byte {
	b, i, ok := d.b, 0, true
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		i, ok = digits(b, i)
	}
	if ok && i < len(b) && b[i] == '.' {
		i, ok = digits(b, i+1)
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i, ok = digits(b, i)
	}
	if !ok {
		d.fail()
		return nil
	}
	d.b = b[i:]
	return b[:i]
}

// digits returns the end of the run of decimal digits at b[i:], and
// whether the run is non-empty.
func digits(b []byte, i int) (int, bool) {
	j := i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	return j, j > i
}

// string consumes a JSON string and returns its value: its own bytes when
// it has no escape and is valid UTF-8, else json.Unmarshal's unquoting of
// the token (json.Marshal escapes '&', so every nqueens cell's dwarf name
// takes that path).
func (d *cellReader) string() string {
	b := d.b
	if len(b) == 0 || b[0] != '"' {
		d.fail()
		return ""
	}
	plain, i := true, 1
	for ; i < len(b) && b[i] != '"'; i++ {
		switch {
		case b[i] == '\\':
			plain = false
			i++ // the escaped byte cannot close the string
		case b[i] < ' ':
			d.fail()
			return ""
		}
	}
	if i >= len(b) {
		d.fail()
		return ""
	}
	tok := b[:i+1]
	d.b = b[i+1:]
	if s := tok[1:i]; plain && utf8.Valid(s) {
		return string(s)
	}
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		d.fail()
	}
	return s
}
