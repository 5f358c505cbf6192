// Command perfbench is the end-to-end benchmark of the ECM-sketch system.
// It runs real ecmserver sites, ecmclient connections and a
// coord.Coordinator in one process over loopback HTTP, feeds them streams
// from internal/workload, checks the answers against an exact oracle, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer metrics
// of a separately traced run). Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// Each workload runs in a child process, so a crash inside the program is
// reported as failed operations with its panic site instead of taking the
// report down. --workload all runs every workload untraced and traced and
// prints the tracing overhead. The last line of standard output is always
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// METRICS.md documents the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// endToEnd lists the end-to-end metrics every untraced run reports, as
// BENCHMARK.json declares them. read_p50_ms is the median of each
// workload's read path under its own name: notify_lag_p50_ms on ingest,
// query_p50_ms on query, refresh_p50_ms on coord. Every other metric the
// workloads are specified with is printed in the report under its own name;
// METRICS.md says why those are not gated.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"err_ratio_max", "ratio"},
	{"ingest_events_per_s", "1/s"},
	{"read_p50_ms", "ms"},
}

var workloads = map[string]func(cfg runConfig, tr *tracer) (*outcome, error){
	"ingest": runIngest,
	"query":  runQuery,
	"coord":  runCoord,
}

type runConfig struct {
	seed    int64
	seconds time.Duration
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int64
	checkFailures     int64
	e2e               map[string]float64 // endToEnd names
	layer             map[string]float64 // perLayer names (traced runs)
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// say prints one human-readable report line.
func say(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// progress emits a machine line the parent process reads and does not print.
func progress(kind string, v any) { fmt.Printf("@%s %v\n", kind, v) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wl      = flag.String("workload", "", "ingest, query, coord, or all")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
		child   = flag.Bool("child", false, "run the workload in this process (internal)")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(buildDir(), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	switch {
	case *child:
		os.Exit(runChild(*wl, cfg, *trace == 1))
	case *wl == "all":
		os.Exit(runAll(cfg))
	case workloads[*wl] != nil:
		stamp(*wl, cfg, *trace == 1)
		res, _, err := spawn(*wl, cfg, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		printResult(res)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want ingest, query, coord or all)\n", *wl)
		os.Exit(2)
	}
}

// runChild runs one workload in this process and prints its result as an
// @result line for the parent.
func runChild(name string, cfg runConfig, traced bool) int {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	flushDisk()
	o, err := workloads[name](cfg, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := result{
		Correct:   o.checkFailures == 0,
		Attempted: o.attempted + o.checkFailures,
		Failed:    o.failed + o.checkFailures,
		Metrics:   map[string]metric{},
	}
	list := endToEnd
	vals := o.e2e
	if traced {
		list, vals = layerMetrics(name), o.layer
		path := filepath.Join(buildDir(), fmt.Sprintf("trace-%s-seed%d.jsonl", name, cfg.seed))
		if err := tr.write(path, newStamp(name, cfg, traced)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		say("spans written to %s", path)
		e2e, _ := json.Marshal(o.e2e)
		progress("e2e", string(e2e))
	}
	for _, m := range list {
		v, ok := vals[m.name]
		switch {
		case traced && (!ok || math.IsNaN(v)):
			res.Metrics[m.name] = metric{0, m.unit} // layer not exercised
		case ok && !math.IsNaN(v):
			res.Metrics[m.name] = metric{v, m.unit}
		}
	}
	b, _ := json.Marshal(res)
	progress("result", string(b))
	return 0
}

// childRun is what the parent learned from one child process.
type childRun struct {
	res *result
	e2e map[string]float64 // traced children: their own end-to-end figures
}

// spawn runs one workload in a child process, forwarding its report lines.
// A child that dies without a result is reported as failed operations, with
// the panic site from its stderr.
func spawn(name string, cfg runConfig, traced bool) (*result, *childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-seconds", strconv.Itoa(int(cfg.seconds/time.Second)), "-trace", trace)
	var stderr strings.Builder
	cmd.Stderr = io.MultiWriter(&stderr, os.Stderr)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	run := &childRun{}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		kind, val, ok := strings.Cut(strings.TrimPrefix(line, "@"), " ")
		if !strings.HasPrefix(line, "@") || !ok {
			fmt.Println(line)
			continue
		}
		switch kind {
		case "result":
			run.res = new(result)
			if err := json.Unmarshal([]byte(val), run.res); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: unreadable child result:", err)
				run.res = nil
			}
		case "e2e":
			if err := json.Unmarshal([]byte(val), &run.e2e); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: unreadable child figures:", err)
			}
		}
	}
	waitErr := cmd.Wait()
	if run.res != nil && waitErr == nil {
		return run.res, run, nil
	}
	return crashResult(name, waitErr, stderr.String()), run, nil
}

// endChecks is the most end-of-run checks a workload makes: the estimate
// audit, plus a consistent-cut audit on query and the root's byte-identity
// with a flat merge on coord. A crashed run counts them all as failed.
const endChecks = 2

// crashResult accounts a child that died: the operation in flight and the
// end-of-run checks that could not run count as failed.
func crashResult(name string, waitErr error, stderr string) *result {
	msg, site, chain := panicSite(stderr)
	say("CRASH %s: child process ended (%v)", name, waitErr)
	if msg != "" {
		say("CRASH %s: %s", name, msg)
		say("CRASH %s: panic site %s", name, site)
		for _, f := range chain {
			say("CRASH %s:   called from %s", name, f)
		}
	}
	say("CRASH %s: the operation in flight and %d end-of-run checks counted as failed", name, endChecks)
	return &result{
		Correct:   false,
		Attempted: 1 + endChecks,
		Failed:    1 + endChecks,
		Metrics:   map[string]metric{},
	}
}

// panicSite extracts the panic message and the in-repository frames of the
// panicking goroutine's stack, innermost first.
func panicSite(stderr string) (msg, site string, chain []string) {
	lines := strings.Split(stderr, "\n")
	root, _ := os.Getwd()
	inStack := false
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		switch {
		case msg == "" && strings.HasPrefix(l, "panic: "):
			msg = l
		case msg != "" && !inStack && strings.HasPrefix(l, "goroutine ") && strings.HasSuffix(l, "[running]:"):
			inStack = true
		case inStack && l == "":
			inStack = false
		case inStack && strings.HasPrefix(l, "ecmsketch/") && i+1 < len(lines):
			fn := l
			if p := strings.LastIndex(fn, "("); p > 0 && strings.HasSuffix(fn, ")") {
				fn = fn[:p] // drop the argument words
			}
			file := strings.TrimSpace(lines[i+1])
			if p := strings.LastIndex(file, " +0x"); p > 0 {
				file = file[:p]
			}
			file = strings.TrimPrefix(file, root+string(filepath.Separator))
			frame := fmt.Sprintf("%s (%s)", fn, file)
			if site == "" {
				site = frame
			} else {
				chain = append(chain, frame)
			}
			i++
		}
	}
	if site == "" {
		site = "unknown (no in-repository frame on the panicking goroutine)"
	}
	return msg, site, chain
}

func printResult(res *result) {
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
}

// runAll runs every workload untraced and traced, prints their reports,
// the tracing overhead, and one combined result line.
func runAll(cfg runConfig) int {
	total := result{Correct: true, Metrics: map[string]metric{}}
	names := []string{"ingest", "query", "coord"}
	overhead := map[string][]string{}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			stamp(name, cfg, traced)
			res, run, err := spawn(name, cfg, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			say("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			for _, m := range endToEnd {
				if traced {
					base, ok := total.Metrics[name+"."+m.name]
					if v, ok2 := run.e2e[m.name]; ok && ok2 && base.Value != 0 {
						overhead[name] = append(overhead[name], fmt.Sprintf("%s %+.1f%%", m.name, 100*(v-base.Value)/base.Value))
					}
				} else if v, ok := res.Metrics[m.name]; ok {
					total.Metrics[name+"."+m.name] = v
				}
			}
		}
	}
	for _, name := range names {
		say("tracing overhead on %s (traced vs untraced end-to-end): %s", name, strings.Join(overhead[name], ", "))
	}
	printResult(&total)
	return 0
}

// ---- stamps ----

func buildDir() string {
	root, _ := os.Getwd()
	return filepath.Join(root, ".bench_build", "perfbench")
}

// hostStamp is the host and source identity every result is tied to.
type hostStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Nproc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	TreeSHA256 string `json:"tree_sha256"`
}

func newStamp(name string, cfg runConfig, traced bool) hostStamp {
	return hostStamp{name, cfg.seed, int(cfg.seconds / time.Second), traced,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), gitCommit(), treeHash()}
}

// stamp prints the stamp ahead of a workload's report.
func stamp(name string, cfg runConfig, traced bool) {
	h := newStamp(name, cfg, traced)
	say("# perfbench workload=%s seed=%d seconds=%d trace=%v", h.Workload, h.Seed, h.Seconds, h.Traced)
	say("# host gomaxprocs=%d nproc=%d cpu=%q go=%s", h.GOMAXPROCS, h.Nproc, h.CPU, h.Go)
	say("# source commit=%s tree_sha256=%s", h.Commit, h.TreeSHA256)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(out))
}

// treeHash identifies the measured source when the checkout carries no git
// metadata: a SHA-256 over the path and contents of every Go source and
// module file, build output excluded.
func treeHash() string {
	h := sha256.New()
	var paths []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unavailable"
	}
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unavailable"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

var errNoEvents = errors.New("workload stream exhausted")
