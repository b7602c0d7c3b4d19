package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
)

var digestLine = regexp.MustCompile(`model_digest=([0-9a-f]{16})`)

// runChild runs one workload pass in a process of its own (this binary
// again), passes its report through to standard error, and returns the
// result it printed last and the model digest it reported.
func runChild(name string, seed uint64, seconds, trace int) (result, string, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, "", fmt.Errorf("bench: locate own binary: %w", err)
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // waits for the child to end
	os.Stderr.Write(out)
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		if runErr != nil {
			return r, "", fmt.Errorf("bench: %s: %w", name, runErr)
		}
		return r, "", fmt.Errorf("bench: %s printed no result: %w", name, err)
	}
	// A child that printed a result and then exited non-zero failed a check;
	// the result carries that as correct=false.
	digest := ""
	if m := digestLine.FindSubmatch(out); m != nil {
		digest = string(m[1])
	}
	return r, digest, nil
}

// runAll runs every workload, untraced then traced, and prints one JSON
// document: workload -> pass -> result. Tracing must not change what runs:
// the two passes of a workload must report the same model digest.
func runAll(seed uint64, seconds int) error {
	summary := make(map[string]map[string]result, len(workloadSpecs))
	correct := true
	for _, w := range workloadSpecs {
		summary[w.Name] = make(map[string]result, 2)
		var digests [2]string
		for trace, pass := range []string{"end_to_end", "per_layer"} {
			r, digest, err := runChild(w.Name, seed, seconds, trace)
			if err != nil {
				return err
			}
			summary[w.Name][pass] = r
			digests[trace] = digest
			correct = correct && r.Correct
		}
		if digests[0] != digests[1] {
			fmt.Fprintf(os.Stderr, "bench: %s: traced model digest %s, untraced %s\n", w.Name, digests[1], digests[0])
			correct = false
		}
	}
	buf, err := json.Marshal(summary)
	if err != nil {
		return fmt.Errorf("bench: encode summary: %w", err)
	}
	fmt.Println(string(buf))
	if !correct {
		return fmt.Errorf("bench: some elections failed their check")
	}
	return nil
}

// runRepeatCheck runs two full sets of untraced passes of this same binary
// and fails if any end-to-end metric of any workload got worse from the
// first set to the second, or better, by more than its own bound.
func runRepeatCheck(seed uint64, seconds int) error {
	var sets [2]map[string]result
	for i := range sets {
		sets[i] = make(map[string]result, len(workloadSpecs))
		for _, w := range workloadSpecs {
			r, _, err := runChild(w.Name, seed, seconds, 0)
			if err != nil {
				return err
			}
			if !r.Correct {
				return fmt.Errorf("bench: %s: %d of %d elections failed their check", w.Name, r.Failed, r.Attempted)
			}
			sets[i][w.Name] = r
		}
	}
	beyond := 0
	for _, w := range workloadSpecs {
		for _, m := range endToEndSpecs {
			a, b := sets[0][w.Name].Metrics[m.Name].Value, sets[1][w.Name].Metrics[m.Name].Value
			diff := ratio(b-a, a)
			if diff < 0 {
				diff = -diff
			}
			verdict := "ok"
			if diff > m.Bound {
				verdict = "BEYOND BOUND"
				beyond++
			}
			fmt.Printf("%-34s %-20s %14.6g %14.6g %s  %+.2f%% (bound %g%%) %s\n",
				w.Name, m.Name, a, b, m.Unit, 100*ratio(b-a, a), 100*m.Bound, verdict)
		}
	}
	if beyond > 0 {
		return fmt.Errorf("bench: %d end-to-end metrics differ between two runs of the same code by more than their bound", beyond)
	}
	return nil
}
