// Process-level gates for the commands. TestMain builds dwarfsweep,
// dwarfbench, dwarfpredict, figures, sizer, dwarfsched, dwarfserve and
// dwarftop once; every test runs them as a user or CI would, in a
// temporary directory and under a deadline, and checks exit codes, what
// they print, the files they export and, for dwarfserve, what it answers
// over HTTP.
package cmd_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"opendwarfs/internal/suite"
)

// commands are the binaries TestMain builds into binDir.
var commands = []string{"dwarfsweep", "dwarfbench", "dwarfpredict", "figures", "sizer", "dwarfsched", "dwarfserve", "dwarftop"}

var (
	binDir     string   // removed by TestMain after the run
	sourceDirs []string // every non-standard package directory the commands build from
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "opendwarfs-cmd-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	// A command that does not build fails the package; it never skips.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	var pkgs []string
	for _, c := range commands {
		pkgs = append(pkgs, "./"+c)
	}
	list := exec.CommandContext(ctx, "go", append([]string{"list", "-deps", "-f", "{{if not .Standard}}{{.Dir}}{{end}}"}, pkgs...)...)
	list.Stderr = os.Stderr
	code := 1
	if out, err := exec.CommandContext(ctx, "go", append([]string{"build", "-o", dir}, pkgs...)...).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building the commands: %v\n%s", err, out)
	} else if out, err := list.Output(); err != nil {
		fmt.Fprintf(os.Stderr, "listing the commands' packages: %v\n", err)
	} else {
		sourceDirs = strings.Fields(string(out))
		code = m.Run()
	}
	cancel()
	os.RemoveAll(dir)
	os.Exit(code)
}

var recordSources sync.Once

// readSources lists every directory in sourceDirs once, from inside the
// test run, so that go test records each listing (names, sizes and
// modification times) as an input of this package's cached result. The
// commands are built by a child go build the test cache does not see, so
// without it an edit that breaks them could pass from the cache. Only a
// test can record: m.Run installs the log the cache reads.
func readSources(t *testing.T) {
	recordSources.Do(func() {
		for _, dir := range sourceDirs {
			if _, err := os.ReadDir(dir); err != nil {
				t.Errorf("recording the commands' sources: %v", err)
			}
		}
	})
}

// result is one finished command.
type result struct {
	code           int
	stdout, stderr string
}

// run runs the named command with args in dir under a deadline and
// returns once it exits.
func run(t *testing.T, dir, name string, args ...string) result {
	t.Helper()
	return start(t, dir, name, args...)()
}

// start starts the named command with args in dir under a deadline and
// returns a function that waits for it to exit. It fails the test if the
// command cannot start, and the wait if it overruns the deadline; cleanup
// kills a command the test has not waited for.
func start(t *testing.T, dir, name string, args ...string) (wait func() result) {
	t.Helper()
	readSources(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, filepath.Join(binDir, name), args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		cancel()
		t.Fatalf("%s %s: %v", name, strings.Join(args, " "), err)
	}
	waited := false
	t.Cleanup(func() {
		cancel()
		if !waited {
			cmd.Wait()
		}
	})
	return func() result {
		t.Helper()
		err := cmd.Wait()
		waited = true
		var exit *exec.ExitError
		if ctx.Err() != nil || (err != nil && !errors.As(err, &exit)) {
			t.Fatalf("%s %s: %v (deadline: %v)", name, strings.Join(args, " "), err, ctx.Err())
		}
		return result{code: cmd.ProcessState.ExitCode(), stdout: stdout.String(), stderr: stderr.String()}
	}
}

// ok runs the named command like run and fails the test unless it exits
// 0; it returns stdout.
func ok(t *testing.T, dir, name string, args ...string) string {
	t.Helper()
	r := run(t, dir, name, args...)
	if r.code != 0 {
		t.Fatalf("%s %s: exit %d\nstdout:\n%s\nstderr:\n%s",
			name, strings.Join(args, " "), r.code, r.stdout, r.stderr)
	}
	return r.stdout
}

// lastLine returns the final line of out.
func lastLine(out string) string {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	return lines[len(lines)-1]
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// withoutTiming drops dwarfsweep's "N grid cells measured in D" line,
// the only wall-clock reading on the pinned runs' stdout.
func withoutTiming(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.Contains(line, " measured in ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestOutputsGolden pins each run's stdout (without its timing line), its
// stderr where listed, and every file it exports. Every run is
// deterministic: -parallel 1 wherever progress lines reach a pinned
// stream, and no wall-clock reading elsewhere. A mismatch means a
// measurement, a report or an export format changed; refresh only with a
// documented model or output change.
func TestOutputsGolden(t *testing.T) {
	// What a digest cannot pin, by run.
	checks := map[string]func(*testing.T, result){"figures/all": suiteOrderBlocks}
	for _, tc := range []struct {
		name string
		args []string
		want map[string]string // "stdout", "stderr" or an exported file → SHA-256
	}{
		{"dwarfsweep/exports", []string{"dwarfsweep", "-parallel", "1", "-benchmarks", "crc,fft", "-sizes", "tiny",
			"-devices", "i7-6700k,gtx1080,k20m", "-csv", "c.csv", "-jsonl", "j.jsonl", "-figcsv", "f.csv",
			"-boxes", "-compare", "i7-6700k,gtx1080"}, map[string]string{
			"stdout":  "7379405b93357512a103639f75d6ff994c3c74e1d77e0bcb9aa9dada1a008411",
			"c.csv":   "efcede1347673a8d0a13f5a361a71c7a037e9f6944f983cbf1e331f104a6ee02",
			"j.jsonl": "d7e1f6030edd2a8241f1f7769c0a3480395ca0f3a09275e2c9f372a0cf4ff801",
			"f.csv":   "d1062441d0c0257854eeb31c0ac0b46458a47bb8be2710231414657c6f663776",
		}},
		{"dwarfsweep/chaos", []string{"dwarfsweep", "-parallel", "1", "-benchmarks", "crc", "-sizes", "tiny",
			"-devices", "i7-6700k,k20m", "-chaos", "-chaos-drop", "k20m", "-retries", "3"}, map[string]string{
			"stdout": "62a89c4170b6a23e017170e00451110f5e18c14b12cdc872250fdd6a828bd836",
			"stderr": "60179739b40f837017e7e0c9c912901e4acbc5bd1173ebcdee67c514b02ad2c0",
		}},
		{"dwarfbench/kmeans", []string{"dwarfbench", "-b", "kmeans", "-size", "tiny"}, map[string]string{
			"stdout": "eef71b149bd8d401dcb9fa1be8c28e2d3e6caddcc8cdd06eb2d13c8556502c75",
		}},
		{"dwarfbench/srad_aiwc", []string{"dwarfbench", "-b", "srad", "-size", "small", "-aiwc"}, map[string]string{
			"stdout": "c91984f0494fd2bd6982fbc280e5268e47a8adf11e687d775c2fb1f99fedd8d5",
		}},
		{"dwarfbench/fft_sizes", []string{"dwarfbench", "-b", "fft", "-size", "tiny,small", "-device", "gtx1080",
			"-parallel", "1", "-aiwc"}, map[string]string{
			"stdout": "401ee5b14544d507c2fa73efd7d5522970d564a5aa30cf69d226ceaa2374af09",
		}},
		{"dwarfbench/list", []string{"dwarfbench", "-list"}, map[string]string{
			"stdout": "7f098927882f0b1f105bcbe07b70790bf143f12859297ec063bd4216d2115219",
		}},
		{"dwarfpredict/both", []string{"dwarfpredict", "-sizes", "tiny", "-mode", "both", "-importance", "5",
			"-parallel", "1"}, map[string]string{
			"stdout": "3560566f411e6cfe8b6cbd7373f5da52d8b1c19483bfc1c341ca68256bb8b7d3",
		}},
		{"figures/all", []string{"figures"}, map[string]string{
			"stdout": "78c689ee847212e9169dc536f632925b6f2bd848cb1b2dbaf6ef913bdc704296",
		}},
		{"figures/table1", []string{"figures", "-only", "table1"}, map[string]string{
			"stdout": "c0689fcd255ab5243e8874dec5a2f0fbd65d0ecd84e748e861e34a2f337facd9",
		}},
		{"sizer/all", []string{"sizer"}, map[string]string{
			"stdout": "fcfddfe4f23faad24ce87157dc19f7f7a4213757dea68bf96a9fcf4b506db3ea",
		}},
		{"sizer/trace", []string{"sizer", "-trace", "-b", "kmeans"}, map[string]string{
			"stdout": "3167bd7413043a2098cb6277ee383ed873c2c3d2c0fbdbef7dc7d80717bb56df",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r := run(t, dir, tc.args[0], tc.args[1:]...)
			if r.code != 0 {
				t.Fatalf("exit %d\nstderr:\n%s", r.code, r.stderr)
			}
			for name, want := range tc.want {
				var got string
				switch name {
				case "stdout":
					got = digest([]byte(withoutTiming(r.stdout)))
				case "stderr":
					got = digest([]byte(r.stderr))
				default:
					b, err := os.ReadFile(filepath.Join(dir, name))
					if err != nil {
						t.Fatal(err)
					}
					got = digest(b)
				}
				if got != want {
					t.Errorf("%s digest %s, want %s", name, got, want)
				}
			}
			if check := checks[tc.name]; check != nil {
				check(t, r)
			}
		})
	}
}

// suiteOrderBlocks requires the progress lines on stderr to form one block
// per benchmark, the blocks in suite order. Lines inside a block may
// interleave, as each benchmark is swept at GOMAXPROCS workers.
func suiteOrderBlocks(t *testing.T, r result) {
	t.Helper()
	var blocks []string
	for _, line := range strings.Split(r.stderr, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "cell" {
			continue
		}
		if len(blocks) == 0 || blocks[len(blocks)-1] != f[2] {
			blocks = append(blocks, f[2])
		}
	}
	var want []string
	for _, b := range suite.New().All() {
		want = append(want, b.Name())
	}
	if !slices.Equal(blocks, want) {
		t.Errorf("progress blocks %v, want one per benchmark in suite order %v", blocks, want)
	}
}

// TestFlagErrorsExitBeforeMeasuring: a flag mistake exits 1 with its
// message and prints nothing to stdout, so no cell is measured first.
func TestFlagErrorsExitBeforeMeasuring(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"dwarfsweep", "-compact"}, "dwarfsweep: -assert-store-hits and -compact require -store"},
		{[]string{"dwarfbench", "-b", "fft", "-size", "huge"}, `dwarfbench: fft does not support size "huge"`},
		{[]string{"dwarfpredict", "-mode", "x"}, `dwarfpredict: unknown -mode "x"`},
		{[]string{"dwarfpredict", "-holdout", "nosuch"}, `dwarfpredict: sim: unknown device "nosuch" (known: [`},
		{[]string{"dwarfpredict", "-devices", "i7-6700k,k20m", "-holdout", "gtx1080"}, "dwarfpredict: -holdout gtx1080 is not among -devices i7-6700k,k20m"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			r := run(t, t.TempDir(), tc.args[0], tc.args[1:]...)
			if r.code != 1 || !strings.Contains(r.stderr, tc.msg) || r.stdout != "" {
				t.Fatalf("exit %d, want 1 with %q and no stdout\nstdout:\n%s\nstderr:\n%s",
					r.code, tc.msg, r.stdout, r.stderr)
			}
		})
	}
}

// TestSweepChecksCompareFirst: a -compare that does not name two
// catalogue devices exits 1 before dwarfsweep measures a cell.
func TestSweepChecksCompareFirst(t *testing.T) {
	for _, tc := range []struct{ pair, msg string }{
		{"a", "dwarfsweep: -compare wants exactly two device IDs"},
		{"i7-6700k,nosuch", `dwarfsweep: sim: unknown device "nosuch"`},
	} {
		t.Run(tc.pair, func(t *testing.T) {
			r := run(t, t.TempDir(), "dwarfsweep", "-benchmarks", "crc", "-sizes", "tiny", "-compare", tc.pair)
			if r.code != 1 || !strings.Contains(r.stderr, tc.msg) || strings.Contains(r.stdout, "cell ") {
				t.Fatalf("exit %d, want 1 with %q and no cell line\nstdout:\n%s\nstderr:\n%s",
					r.code, tc.msg, r.stdout, r.stderr)
			}
		})
	}
}

// TestStoreSmoke is CI's store round trip: a cold sweep into a fresh
// store, a warm re-sweep that must be a 100% hit with a byte-identical
// CSV, a compacting sweep that leaves one snapshot and no segment, and a
// sweep after compaction that must again hit every cell.
func TestStoreSmoke(t *testing.T) {
	dir := t.TempDir()
	sweep := []string{"-benchmarks", "crc,fft", "-sizes", "tiny",
		"-devices", "i7-6700k,gtx1080,k20m", "-store", "store"}
	ok(t, dir, "dwarfsweep", append(sweep, "-csv", "cold.csv")...)
	ok(t, dir, "dwarfsweep", append(sweep, "-csv", "warm.csv", "-assert-store-hits", "100")...)
	cold, err := os.ReadFile(filepath.Join(dir, "cold.csv"))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := os.ReadFile(filepath.Join(dir, "warm.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm re-sweep's CSV differs from the cold sweep's")
	}

	ok(t, dir, "dwarfsweep", append(sweep, "-assert-store-hits", "100", "-compact")...)
	if _, err := os.Stat(filepath.Join(dir, "store", "snapshot.jsonl")); err != nil {
		t.Fatalf("no snapshot after -compact: %v", err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "store", "seg-*.jsonl")); len(segs) > 0 {
		t.Fatalf("dead segments survived compaction: %v", segs)
	}
	ok(t, dir, "dwarfsweep", append(sweep, "-assert-store-hits", "100")...)
}

// TestStoreBytesGolden pins the bytes a sequential sweep writes to a
// fresh store: its one segment, then the snapshot a compacting re-sweep
// leaves. A mismatch means the store's line framing or a record's encoding
// changed; refresh only with a deliberate StoreSchemaVersion bump.
func TestStoreBytesGolden(t *testing.T) {
	const (
		wantSegment  = "e4238547f436904e71249f8712df7ef8f8db7c846f93f5ed4798cdfd4bdb1fd2"
		wantSnapshot = "1453c9f0a0cd70b2decb7e2892df266df046c6189b8f6a23187d04a04933bfdf"
	)
	dir := t.TempDir()
	sweep := []string{"-parallel", "1", "-benchmarks", "crc,fft", "-sizes", "tiny",
		"-devices", "i7-6700k,gtx1080,k20m", "-store", "store"}
	ok(t, dir, "dwarfsweep", sweep...)
	segs, _ := filepath.Glob(filepath.Join(dir, "store", "seg-*.jsonl"))
	if len(segs) != 1 {
		t.Fatalf("segments after one sweep: %v, want one", segs)
	}
	fileDigest := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return digest(b)
	}
	if got := fileDigest(segs[0]); got != wantSegment {
		t.Errorf("segment digest %s, want %s", got, wantSegment)
	}
	ok(t, dir, "dwarfsweep", append(sweep, "-compact")...)
	if got := fileDigest(filepath.Join(dir, "store", "snapshot.jsonl")); got != wantSnapshot {
		t.Errorf("snapshot digest %s, want %s", got, wantSnapshot)
	}
}

// TestPredictSmoke is CI's prediction gate: leave-one-device-out over the
// tiny grid keeps the median per-device LogMAPE under the 50% ceiling.
func TestPredictSmoke(t *testing.T) {
	out := ok(t, t.TempDir(), "dwarfpredict", "-sizes", "tiny", "-mode", "lodo", "-assert-mape", "50")
	if last := lastLine(out); !strings.Contains(last, "within ceiling 50.00%") {
		t.Fatalf("closing line %q, want the LogMAPE within the 50%% ceiling", last)
	}
}

// TestDefaultRunGolden pins dwarfsched's default invocation's stdout —
// every benchmark at large ×3 on all 15 devices, bootstrapped from 4 —
// which holds the policy comparison and the primary policy's timeline.
// The output is the same at every -parallel. A mismatch means a
// schedule, a cost or the report changed; refresh only with a documented
// model or output change.
func TestDefaultRunGolden(t *testing.T) {
	const want = "4b83c7948f0757b89be6009606ca0c46f9375577daf0eb711c20676addcf79a3"
	if got := digest([]byte(ok(t, t.TempDir(), "dwarfsched"))); got != want {
		t.Fatalf("default run stdout digest %s, want %s", got, want)
	}
}

// smokeArgs is the tiny workload and fleet of dwarfsched's smoke legs:
// only titanx is never bootstrapped, so its costs start as predictions.
var smokeArgs = []string{
	"-tasks", "crc/tiny:2,fft/tiny:2,nw/tiny:2",
	"-devices", "i7-6700k,gtx1080,k20m,titanx",
	"-samples", "6",
}

// TestSchedSmoke: HEFT on predictions lands within 25% of the
// measured-cost oracle's makespan — single-shot from a three-device
// bootstrap, then the store-backed online loop from a two-device one,
// then a warm re-run served from that loop's store. The legs run in
// order: the last reads the store the second wrote.
func TestSchedSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, leg := range []struct {
		name string
		args []string
	}{
		{"single_shot", []string{"-bootstrap", "i7-6700k,gtx1080,k20m", "-assert-regret", "25"}},
		{"online_loop", []string{"-bootstrap", "i7-6700k,gtx1080", "-store", "store", "-rounds", "3", "-assert-regret", "25"}},
		{"warm_rerun", []string{"-bootstrap", "i7-6700k,gtx1080", "-store", "store", "-assert-regret", "25"}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			out := ok(t, dir, "dwarfsched", append(smokeArgs, leg.args...)...)
			if last := lastLine(out); !strings.Contains(last, "within ceiling 25.00%") {
				t.Fatalf("closing line %q, want the regret within the 25%% ceiling", last)
			}
		})
	}
}

// TestChaosSmoke drives the online loop under 20% transient faults and a
// permanent k20m dropout: the run must quarantine k20m, measure every
// cell reachable on the survivors (-assert-complete) and still keep HEFT
// within the 25% regret ceiling.
func TestChaosSmoke(t *testing.T) {
	out := ok(t, t.TempDir(), "dwarfsched", append(smokeArgs,
		"-bootstrap", "i7-6700k,gtx1080", "-store", "store", "-rounds", "2",
		"-chaos", "-chaos-transient", "0.2", "-chaos-drop", "k20m",
		"-retries", "4", "-retry-backoff", "1ms", "-assert-complete", "-assert-regret", "25")...)
	if !strings.Contains(out, "\ncompleteness: ") {
		t.Fatalf("no completeness line in:\n%s", out)
	}
	if !strings.Contains(out, "quarantined: k20m") {
		t.Fatalf("k20m was not quarantined:\n%s", out)
	}
	if last := lastLine(out); !strings.Contains(last, "within ceiling 25.00%") {
		t.Fatalf("closing line %q, want the regret within the 25%% ceiling", last)
	}
}

// TestChaosSmokeRetries is the chaos leg without -oracle: no truth sweep
// stores the loop's cells beforehand, so the loop itself measures them
// under 30% transient faults and must retry at least once, besides
// quarantining k20m and measuring every reachable cell.
func TestChaosSmokeRetries(t *testing.T) {
	out := ok(t, t.TempDir(), "dwarfsched",
		"-tasks", "crc/tiny:2,fft/tiny:2,nw/tiny:2,kmeans/tiny:2,srad/tiny:2",
		"-devices", "i7-6700k,gtx1080,k20m,titanx", "-samples", "6", "-bootstrap", "i7-6700k,gtx1080",
		"-store", "store", "-rounds", "2", "-chaos", "-chaos-seed", "3", "-chaos-transient", "0.3",
		"-chaos-drop", "k20m", "-retries", "4", "-retry-backoff", "1ms", "-assert-complete")
	m := regexp.MustCompile(`\n(Fault handling: .* (\d+) retry\(ies\); quarantined: k20m)\n`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no fault line quarantining k20m in:\n%s", out)
	}
	if n, _ := strconv.Atoi(m[2]); n < 1 {
		t.Fatalf("%q: the online loop retried nothing", m[1])
	}
	if !strings.Contains(out, "\ncompleteness: ") {
		t.Fatalf("no completeness line in:\n%s", out)
	}
}

// daemon is one dwarfserve process started by serve.
type daemon struct {
	cmd    *exec.Cmd
	base   string      // http://host:port, from the "listening on" log line
	stderr chan string // everything the process wrote to stderr, once it closes
	waited bool
}

// serve starts dwarfserve in dir with args and -addr 127.0.0.1:0, and
// returns once the process has logged the address it bound. The process
// runs under a deadline; cleanup kills it if the test has not stopped it.
func serve(t *testing.T, dir string, args ...string) *daemon {
	t.Helper()
	readSources(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	cmd := exec.CommandContext(ctx, filepath.Join(binDir, "dwarfserve"), append(args, "-addr", "127.0.0.1:0")...)
	cmd.Dir = dir
	pipe, err := cmd.StderrPipe()
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		cancel()
		t.Fatalf("dwarfserve %s: %v", strings.Join(args, " "), err)
	}
	d := &daemon{cmd: cmd, stderr: make(chan string, 1)}
	t.Cleanup(func() {
		cancel()
		if !d.waited {
			<-d.stderr
			cmd.Wait()
		}
	})
	addr := make(chan string, 1)
	go func() {
		var all strings.Builder
		sent := false
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			all.WriteString(sc.Text() + "\n")
			if _, a, found := strings.Cut(sc.Text(), "listening on "); found && !sent {
				addr <- a
				sent = true
			}
		}
		io.Copy(io.Discard, pipe) // a line past the scanner's limit
		d.stderr <- all.String()
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case out := <-d.stderr:
		d.stderr <- out
		t.Fatalf("dwarfserve %s exited before listening:\n%s", strings.Join(args, " "), out)
	case <-ctx.Done():
		t.Fatalf("dwarfserve %s: no \"listening on\" line before the deadline", strings.Join(args, " "))
	}
	return d
}

// stop sends SIGTERM and returns the exit code and the whole stderr.
func (d *daemon) stop(t *testing.T) (int, string) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	out := <-d.stderr
	err := d.cmd.Wait()
	d.waited = true
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("dwarfserve: %v", err)
	}
	return d.cmd.ProcessState.ExitCode(), out
}

var httpClient = &http.Client{Timeout: time.Minute}

// call sends one request to the daemon, requires the status code and
// returns the body.
func (d *daemon) call(t *testing.T, method, path, body string, code int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, d.base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	if resp.StatusCode != code {
		t.Fatalf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, code, b)
	}
	return b
}

// callJSON sends one request like call and decodes the JSON object
// answered.
func (d *daemon) callJSON(t *testing.T, method, path, body string, code int) map[string]any {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(d.call(t, method, path, body, code), &v); err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	return v
}

// wantField fails the test unless the field of a decoded answer is value.
func wantField(t *testing.T, what string, v map[string]any, field string, value any) {
	t.Helper()
	if got := v[field]; got != value {
		t.Fatalf("%s: %s = %v (%T), want %v", what, field, got, got, value)
	}
}

// postJob posts a job and returns the id the daemon answers.
func (d *daemon) postJob(t *testing.T, body string) string {
	t.Helper()
	job := d.callJSON(t, "POST", "/v1/jobs", body, http.StatusAccepted)
	id, _ := job["id"].(string)
	if id == "" {
		t.Fatalf("POST /v1/jobs: no id in %v", job)
	}
	return id
}

// TestServeSmoke is CI's serving leg: dwarfserve answers every read route
// from a compacted six-cell store, runs a job that widens the store by
// titanx (six store hits, two measured cells, no Prepare), then serves a
// /v1/grid byte-identical to a server's over a synchronously swept store
// of the widened selection, and exits 0 on SIGTERM.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	sel := []string{"-benchmarks", "crc,fft", "-sizes", "tiny"}
	ok(t, dir, "dwarfsweep", append(sel, "-devices", "i7-6700k,gtx1080,k20m,titanx", "-store", "ref")...)
	ref := serve(t, dir, "-store", "ref")
	syncGrid := ref.call(t, "GET", "/v1/grid", "", http.StatusOK)
	if code, out := ref.stop(t); code != 0 {
		t.Fatalf("reference dwarfserve: exit %d on SIGTERM:\n%s", code, out)
	}

	ok(t, dir, "dwarfsweep", append(sel, "-devices", "i7-6700k,gtx1080,k20m", "-store", "store", "-compact")...)
	d := serve(t, dir, "-store", "store")
	wantField(t, "/healthz", d.callJSON(t, "GET", "/healthz", "", http.StatusOK), "status", "ok")
	wantField(t, "/v1/status", d.callJSON(t, "GET", "/v1/status", "", http.StatusOK), "cells", 6.0)
	wantField(t, "fft on gtx1080", d.callJSON(t, "GET", "/v1/cells?bench=fft&device=gtx1080", "", http.StatusOK), "total", 1.0)
	// Two pages of three tile the six-cell listing.
	page := d.callJSON(t, "GET", "/v1/cells?limit=3", "", http.StatusOK)
	if cur, _ := page["next_cursor"].(string); cur == "" {
		t.Fatalf("/v1/cells?limit=3: no next_cursor in %v", page)
	}
	wantField(t, "/v1/grid", d.callJSON(t, "GET", "/v1/grid", "", http.StatusOK), "count", 6.0)
	if p := d.callJSON(t, "GET", "/v1/predict?bench=fft&size=tiny&device=titanx", "", http.StatusOK); p["predicted_ns"] == nil {
		t.Fatalf("/v1/predict for unmeasured titanx: no predicted_ns in %v", p)
	}
	// titanx has no stored cell yet, so every slot of a titanx-only fleet
	// is predicted; after the job measures it, none is.
	const titanx = `{"tasks":[{"benchmark":"fft","size":"tiny","count":2},{"benchmark":"crc","size":"tiny"}],"devices":["titanx"],"policy":"heft"}`
	wantField(t, "titanx schedule before the job", d.callJSON(t, "POST", "/v1/schedule", titanx, http.StatusOK), "predicted", 3.0)
	bad := d.callJSON(t, "POST", "/v1/schedule", `{"tasks":[{"benchmark":"crc","size":"tiny"}],"policy":"nope"}`, http.StatusBadRequest)
	if msg, _ := bad["error"].(string); !strings.Contains(msg, "energy fastest-device greedy heft roundrobin") {
		t.Fatalf("unknown policy: error %q, want the sorted valid list", msg)
	}

	id := d.postJob(t, `{"benchmarks":["crc","fft"],"sizes":["tiny"],"devices":["i7-6700k","gtx1080","k20m","titanx"]}`)
	// The event stream follows the job live and ends by itself at grid_done.
	sse := string(d.call(t, "GET", "/v1/jobs/"+id+"/events", "", http.StatusOK))
	for _, ev := range []string{"cell_done", "store_hit", "grid_done"} {
		if !strings.Contains(sse, "event: "+ev+"\n") {
			t.Fatalf("job %s's event stream has no %s:\n%s", id, ev, sse)
		}
	}
	wantField(t, "job "+id, d.callJSON(t, "GET", "/v1/jobs/"+id, "", http.StatusOK), "state", "done")
	wantField(t, "/v1/status after the job", d.callJSON(t, "GET", "/v1/status", "", http.StatusOK), "cells", 8.0)
	// Widening by a device prepared nothing: both rows' preparations were
	// stored by the cold sweep, kept by -compact and decoded by the job.
	metrics := string(d.call(t, "GET", "/metrics", "", http.StatusOK))
	for _, line := range []string{"harness_prepares_total 0", "harness_prep_store_hits_total 2"} {
		if !regexp.MustCompile(`(?m)^` + line + `$`).MatchString(metrics) {
			t.Fatalf("/metrics has no line %q:\n%s", line, metrics)
		}
	}
	if asyncGrid := d.call(t, "GET", "/v1/grid", "", http.StatusOK); !bytes.Equal(asyncGrid, syncGrid) {
		t.Fatalf("/v1/grid after the job differs from the synchronous sweep's:\n%s\nwant:\n%s", asyncGrid, syncGrid)
	}
	wantField(t, "titanx schedule after the job", d.callJSON(t, "POST", "/v1/schedule", titanx, http.StatusOK), "predicted", 0.0)

	code, out := d.stop(t)
	if code != 0 || !strings.Contains(out, "store closed, bye") {
		t.Fatalf("dwarfserve: exit %d on SIGTERM, want 0 with \"store closed, bye\":\n%s", code, out)
	}
}

// eventually polls cond every 50 ms until it holds, and fails the test if
// it still does not after within.
func eventually(t *testing.T, what string, within time.Duration, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(within); !cond(); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, within)
		}
	}
}

// chaosJob widens a store of crc and fft's tiny i7-6700k cells by k20m,
// which it drops: two store hits and two failed cells.
const chaosJob = `{"benchmarks":["crc","fft"],"sizes":["tiny"],"devices":["i7-6700k","k20m"],"retries":3,"chaos":{"seed":7,"drop":["k20m"]}}`

// TestObsAlertSmoke is the alert and live-metrics leg: dwarfserve samples
// every 200 ms under a one-rule -alerts file, and chaosJob, posted as soon
// as it listens, fires the failed-cells burn-rate rule once. The rule
// resolves when the burst leaves its 2 s window, after which /v1/status
// reads healthy, the history window still lists the job's cell counter,
// -pprof has mounted the profile index, and /metrics agrees with the job's
// grid. It runs in parallel with TestStreamReconcileSmoke: both spend
// their time waiting on 200 ms samples.
func TestObsAlertSmoke(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	ok(t, dir, "dwarfsweep", "-benchmarks", "crc,fft", "-sizes", "tiny", "-devices", "i7-6700k", "-store", "store")
	const rules = `{"rules":[
  {"name":"failed_cells_burn","kind":"burn_rate","metric":"harness_failed_cells_total","value":0.05,"window_sec":2,"severity":"page"}
]}`
	if err := os.WriteFile(filepath.Join(dir, "alerts.json"), []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	d := serve(t, dir, "-store", "store", "-sample-interval", "200ms", "-series-capacity", "64", "-alerts", "alerts.json", "-pprof")
	id := d.postJob(t, chaosJob)
	var st map[string]any
	eventually(t, "job "+id+" done", 30*time.Second, func() bool {
		st = d.callJSON(t, "GET", "/v1/jobs/"+id, "", http.StatusOK)
		return st["state"] == "done"
	})
	wantField(t, "job "+id, st, "store_hits", 2.0)
	wantField(t, "job "+id, st, "failed", 2.0)

	burn := func() map[string]any {
		for _, raw := range d.callJSON(t, "GET", "/v1/alerts", "", http.StatusOK)["alerts"].([]any) {
			if a := raw.(map[string]any); a["rule"].(map[string]any)["name"] == "failed_cells_burn" {
				return a
			}
		}
		t.Fatal("/v1/alerts lists no failed_cells_burn rule")
		return nil
	}
	var a map[string]any
	eventually(t, "failed_cells_burn fired", 10*time.Second, func() bool {
		a = burn()
		return a["fired_total"] != 0.0
	})
	wantField(t, "failed_cells_burn", a, "fired_total", 1.0)
	eventually(t, "failed_cells_burn resolved", 15*time.Second, func() bool {
		a = burn()
		return a["state"] == "resolved"
	})
	wantField(t, "resolved failed_cells_burn", a, "fired_total", 1.0)
	wantField(t, "/healthz", d.callJSON(t, "GET", "/healthz", "", http.StatusOK), "status", "ok")
	st = d.callJSON(t, "GET", "/v1/status", "", http.StatusOK)
	wantField(t, "/v1/status", st, "health", "ok")
	if v, _ := st["go_version"].(string); !strings.HasPrefix(v, "go") {
		t.Fatalf("/v1/status: go_version %q, want a Go release", v)
	}
	if hist := d.call(t, "GET", "/v1/metrics/history?window=30s", "", http.StatusOK); !bytes.Contains(hist, []byte(`"harness_cells_total"`)) {
		t.Fatalf("/v1/metrics/history?window=30s lists no harness_cells_total:\n%s", hist)
	}
	d.call(t, "GET", "/debug/pprof/", "", http.StatusOK)

	// The start-up snapshot decoded the two stored cells (slot misses); the
	// job hit both through their slots, and so did the reload after it.
	metrics := string(d.call(t, "GET", "/metrics", "", http.StatusOK))
	lines := strings.Split(metrics, "\n")
	for _, line := range []string{
		"harness_cells_total 2", "harness_store_hits_total 2", "harness_failed_cells_total 2", "harness_quarantines_total 1",
		"slotcache_misses_total 2", "slotcache_hits_total 4", "slotcache_evictions_total 0",
		`jobs_finished_total{state="done"} 1`, "jobs_running 0", `http_requests_total{code="200",route="GET /healthz"} 1`,
	} {
		if !slices.Contains(lines, line) {
			t.Errorf("/metrics has no line %q", line)
		}
	}
	if !strings.Contains(metrics, `faults_injected_total{kind="device_down"} `) {
		t.Errorf("/metrics counts no device_down fault")
	}
	if t.Failed() {
		t.Fatalf("/metrics:\n%s", metrics)
	}
	if code, out := d.stop(t); code != 0 {
		t.Fatalf("dwarfserve: exit %d on SIGTERM:\n%s", code, out)
	}
}

// TestStreamReconcileSmoke is the stream-reconciliation leg: dwarftop
// follows /v1/metrics/stream while chaosJob runs, drops the stream after
// four frames and resumes it with Last-Event-ID, waits for three quiet
// samples, then requires every counter summed from the stream's deltas to
// equal /metrics exactly. The resume must replay from the ring: a server that
// answered it with a fresh snapshot would still reconcile, but as a
// resync. The job's POST is what first moves the counters, so dwarftop
// cannot settle before it; nothing else is requested while dwarftop
// waits, as a request would move http_requests_total.
func TestStreamReconcileSmoke(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	ok(t, dir, "dwarfsweep", "-benchmarks", "crc,fft", "-sizes", "tiny", "-devices", "i7-6700k", "-store", "store")
	d := serve(t, dir, "-store", "store", "-sample-interval", "200ms", "-series-capacity", "64")
	top := start(t, dir, "dwarftop", "-url", d.base, "-reconcile", "3", "-resume-after", "4", "-timeout", "60s")
	d.postJob(t, chaosJob)
	reconciled := regexp.MustCompile(`^RECONCILE OK: \d+ samples, \d+ counters agree exactly \(1 reconnects, 0 resyncs\)\n$`)
	if r := top(); r.code != 0 || !reconciled.MatchString(r.stdout) {
		t.Fatalf("dwarftop: exit %d, want 0 with RECONCILE OK after one resume and no resync\nstdout:\n%s\nstderr:\n%s",
			r.code, r.stdout, r.stderr)
	}
	if code, out := d.stop(t); code != 0 {
		t.Fatalf("dwarfserve: exit %d on SIGTERM:\n%s", code, out)
	}
}
