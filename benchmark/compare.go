package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// suiteLine is one run in a -suite result file.
type suiteLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// runSuite runs every workload once per seed first..first+n-1, each run in
// a fresh process of this same binary — as the driver does — and appends one
// JSON line per run to out.
func runSuite(first int64, n int, seconds float64, out string, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.OpenFile(out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close() // every line is written with its own checked Write
	for seed := first; seed < first+int64(n); seed++ {
		for _, wl := range workloads {
			cmd := exec.Command(self, "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0", "-timing")
			var errOut bytes.Buffer
			cmd.Stderr = &errOut
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", wl.name, seed, err, errOut.Bytes())
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			line := suiteLine{Workload: wl.name, Seed: seed}
			if err := json.Unmarshal(lines[len(lines)-1], &line.Result); err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
			}
			b, err := json.Marshal(line)
			if err != nil {
				return err
			}
			if _, err := f.Write(append(b, '\n')); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "%s seed %d: %.1f req/s\n", wl.name, seed, line.Result.Metrics["throughput_rps"].Value)
		}
	}
	return nil
}

// contractMetric is one end_to_end entry of BENCHMARK.json.
type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(path string) ([]contractMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c struct {
		EndToEnd []contractMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c.EndToEnd, nil
}

// readSuite groups a result file's values by workload and metric.
func readSuite(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read only
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line suiteLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[line.Workload] == nil {
			out[line.Workload] = map[string][]float64{}
		}
		for name, m := range line.Result.Metrics {
			out[line.Workload][name] = append(out[line.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), which
// is what the driver computes spreads with.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// maxBound is the widest bound the contract allows a metric.
const maxBound = 0.25

// compareFiles prints one row per (workload, end-to-end metric) and
// reports whether any pair regressed. A pair whose run-to-run spread on
// either side is wider than the metric's bound is unresolved, not ok. The
// times, which the contract puts no bound on, are judged against the widest
// bound it allows.
func compareFiles(w io.Writer, contractPath, oldPath, newPath string) (regressed bool, err error) {
	metrics, err := readContract(contractPath)
	if err != nil {
		return false, err
	}
	bounded := map[string]bool{}
	for _, m := range metrics {
		bounded[m.Name] = true
	}
	for _, m := range timing {
		if !bounded[m.name] {
			metrics = append(metrics, contractMetric{m.name, m.unit, m.better, maxBound})
		}
	}
	olds, err := readSuite(oldPath)
	if err != nil {
		return false, err
	}
	news, err := readSuite(newPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median\told min–max\told spread\tnew median\tnew min–max\tnew spread\tworse by\tbound\tverdict\t")
	for _, wl := range workloads {
		for _, m := range metrics {
			a, b := olds[wl.name][m.Name], news[wl.name][m.Name]
			if len(a) == 0 && len(b) == 0 && !bounded[m.Name] {
				continue // files written without -timing
			}
			if len(a) == 0 || len(b) == 0 {
				return false, fmt.Errorf("%s/%s: missing from one of the files", wl.name, m.Name)
			}
			describe := func(vs []float64) (med, spread float64, minmax string) {
				q1, q2, q3 := quartiles(vs)
				s := append([]float64(nil), vs...)
				sort.Float64s(s)
				return q2, (q3 - q1) / q2, fmt.Sprintf("%.4g–%.4g", s[0], s[len(s)-1])
			}
			am, as, ar := describe(a)
			bm, bs, br := describe(b)
			worse := (bm - am) / am
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			case as > m.Bound || bs > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%s\t%.1f%%\t%.4g\t%s\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\t\n",
				wl.name, m.Name, m.Unit, am, ar, as*100, bm, br, bs*100, worse*100, m.Bound*100, verdict)
		}
	}
	return regressed, tw.Flush()
}
