// Command benchmark is the repository's end-to-end benchmark: one process
// assembles a three-server cluster from the internal packages on loopback
// TCP, fronts it with the proxy plug-in behind a net/http listener, and
// drives that HTTP port with a closed-loop generator. BENCHMARK.json at the
// repository root is its contract; README.md documents every workload and
// metric.
//
//	go run ./benchmark --workload echo-hot --seed 1 --seconds 18 --trace 0
//	go run ./benchmark -suite 10 -out a.jsonl      # every workload, seeds 1..10
//	go run ./benchmark -compare a.jsonl b.jsonl    # A/A or parent/change table
//	go run ./benchmark -calibrate                  # generator ceiling alone
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"wls/internal/vclock"
)

// The load model and the device model are fixed so that two runs are
// always comparable; see README.md for why each value was chosen.
const (
	segmentsPerRun = 3
	maxConns       = 4
	flushFloor     = time.Millisecond
	dataRoot       = ".bench_data" // under the working directory, removed on exit
)

// All time is read through the repo's clock interface (internal/lint's
// walltime rule); now is nanoseconds since process start.
var (
	clk  = vclock.System
	base = clk.Now()
)

func now() int64 { return int64(clk.Since(base)) }

func defaultConns() int { return min(runtime.NumCPU(), maxConns) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: echo-hot, session-wide, checkout-durable or shop-mix")
	seed := fs.Int64("seed", 1, "seed for session, SKU and request-class choice")
	seconds := fs.Float64("seconds", 18, "timed seconds per run, split over the segments")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced window")
	withTiming := fs.Bool("timing", false, "with -trace 0, add throughput_rps, latency_p50_us and latency_p95_us (unbounded) to the result line")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the traced window's spans to this file as JSONL")
	calib := fs.Bool("calibrate", false, "measure the generator against a no-op handler and exit")
	suite := fs.Int("suite", 0, "run every workload with N seeds from -seed on, untraced, appending one line per run to -out")
	out := fs.String("out", "", "result file for -suite")
	compare := fs.Bool("compare", false, "compare two -suite result files: -compare old new")
	contract := fs.String("contract", "BENCHMARK.json", "contract file -compare takes bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two result files"))
		}
		regressed, err := compareFiles(stdout, *contract, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case *suite > 0:
		if *out == "" {
			return fail(errors.New("-suite needs -out"))
		}
		if err := runSuite(*seed, *suite, *seconds, *out, stderr); err != nil {
			return fail(err)
		}
		return 0
	case *calib:
		rps, err := calibrate(defaultConns(), *seed, time.Second)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "gen_ceiling_rps %.1f (conns %d)\n", rps, defaultConns())
		return 0
	}

	cfg := config{
		seed:     *seed,
		seconds:  *seconds,
		segments: segmentsPerRun,
		conns:    defaultConns(),
		floor:    flushFloor,
		dataDir:  filepath.Join(dataRoot, strconv.Itoa(os.Getpid())),
		traceOut: *traceOut,
		timing:   *withTiming,
	}
	found := false
	for _, wl := range workloads {
		if wl.name == *name {
			cfg.wl, found = wl, true
		}
	}
	if !found {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if cfg.seconds <= 0 {
		return fail(errors.New("-seconds must be positive"))
	}
	defer func() {
		// The segments removed their own directories; these two are empty
		// unless a segment failed, or another run shares the root.
		_ = os.RemoveAll(cfg.dataDir)
		_ = os.Remove(dataRoot)
	}()
	stampEnvironment(stderr, cfg)

	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runUntraced(cfg)
	}
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// stampEnvironment writes what a number from this run depends on, as one
// JSON line on standard error. BENCHMARK.json itself has a fixed set of
// keys and cannot carry it.
func stampEnvironment(w io.Writer, cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	kernel := "unknown"
	var un syscall.Utsname
	if syscall.Uname(&un) == nil {
		b := make([]byte, 0, len(un.Release))
		for _, c := range un.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	fsType := "unknown"
	var st syscall.Statfs_t
	if syscall.Statfs(".", &st) == nil {
		fsType = fmt.Sprintf("0x%x", st.Type)
	}
	env, _ := json.Marshal(map[string]any{ // plain values: cannot fail
		"topology":    "loopback, single process: 3 servers + proxy + HTTP listener + generator",
		"go":          runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"kernel":      kernel,
		"commit":      commit,
		"workload":    cfg.wl.name,
		"seed":        cfg.seed,
		"conns":       cfg.conns,
		"seconds":     cfg.seconds,
		"segments":    cfg.segments,
		"flush_floor": cfg.floor.String(),
		"data_dir_fs": fsType,
		"load":        "closed loop, zero think time",
	})
	fmt.Fprintf(w, "benchmark: env %s\n", env)
}
