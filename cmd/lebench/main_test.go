package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"anonlead/internal/obs"
	"anonlead/internal/trajectory"
)

// TestLebench builds the binary once and drives it as a process: the
// pool-size identity over the whole gate plan, the gate sweep against the
// committed baseline, stdout against lereport's render of the artifact,
// the telemetry flags that must leave the cells alone, and the removed
// flags and negative counts that must be refused.
func TestLebench(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the lebench binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "lebench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// run executes lebench and returns its stdout and stderr.
	run := func(t *testing.T, args ...string) (string, string, error) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		return stdout.String(), stderr.String(), err
	}
	mustRun := func(t *testing.T, args ...string) (string, string) {
		t.Helper()
		stdout, stderr, err := run(t, args...)
		if err != nil {
			t.Fatalf("lebench %v: %v\n%s", args, err, stderr)
		}
		return stdout, stderr
	}
	readFile := func(t *testing.T, path string) []byte {
		t.Helper()
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	// cells returns an artifact's cells, each as its raw JSON fields.
	cells := func(t *testing.T, path string) []map[string]json.RawMessage {
		t.Helper()
		var a struct{ Cells []map[string]json.RawMessage }
		if err := json.Unmarshal(readFile(t, path), &a); err != nil {
			t.Fatal(err)
		}
		return a.Cells
	}

	// The pool size changes neither the file nor the printed report, over
	// every cell of the gate plan.
	t.Run("workers", func(t *testing.T) {
		one, three := filepath.Join(dir, "w1.json"), filepath.Join(dir, "w3.json")
		out1, _ := mustRun(t, "-exp", "sweeps", "-quick", "-trials", "1", "-workers", "1", "-json", one)
		out3, _ := mustRun(t, "-exp", "sweeps", "-quick", "-trials", "1", "-workers", "3", "-json", three)
		if n := len(cells(t, one)); n != 81 {
			t.Fatalf("-workers 1 wrote %d cells, want the gate plan's 81", n)
		}
		if !bytes.Equal(readFile(t, one), readFile(t, three)) {
			t.Fatal("-workers 1 and -workers 3 wrote different files")
		}
		if strings.ReplaceAll(out1, one, "") != strings.ReplaceAll(out3, three, "") {
			t.Fatalf("-workers 1 and -workers 3 printed different reports:\n%s\nvs\n%s", out1, out3)
		}
	})

	// gateSweep runs the sweep CI's gate runs, once for the subtests that
	// read it, and returns its stdout and artifact path.
	gatePath, gateOut := filepath.Join(dir, "gate.json"), ""
	gateSweep := func(t *testing.T) (string, string) {
		t.Helper()
		if gateOut == "" {
			gateOut, _ = mustRun(t, "-exp", "sweeps", "-quick", "-json", gatePath)
		}
		return gateOut, gatePath
	}

	// The gate sweep writes the committed baseline byte for byte, so
	// go test sees what make benchdiff sees; the diff only explains a
	// failure.
	t.Run("gate", func(t *testing.T) {
		_, path := gateSweep(t)
		baseline := filepath.Join("..", "..", "testdata", "BENCH_baseline.json")
		if bytes.Equal(readFile(t, path), readFile(t, baseline)) {
			return
		}
		r, err := trajectory.DiffFiles(baseline, path)
		if err != nil {
			t.Fatal(err)
		}
		t.Fatalf("the gate sweep differs from testdata/BENCH_baseline.json (make baseline accepts an intended change):\n%s", r.Markdown())
	})

	// Stdout is the report of the artifact: what lereport renders from the
	// -json file, byte for byte.
	t.Run("report", func(t *testing.T) {
		lereport := filepath.Join(dir, "lereport")
		if out, err := exec.Command("go", "build", "-o", lereport, "../lereport").CombinedOutput(); err != nil {
			t.Fatalf("go build lereport: %v\n%s", err, out)
		}
		stdout, a := gateSweep(t)
		md, err := exec.Command(lereport, a).Output()
		if err != nil {
			t.Fatalf("lereport: %v", err)
		}
		if !bytes.Contains(md, []byte("## Table 1")) || !strings.Contains(stdout, string(md)) {
			t.Fatalf("lebench stdout does not contain lereport's render of its artifact:\n%s\nvs\n%s", stdout, md)
		}
	})

	// The telemetry side files never enter the artifact, and -round-profile
	// adds each cell's round_profile and nothing else. CI's gate sweep runs
	// with the side files on, so this is what keeps its artifact the one a
	// plain sweep writes.
	t.Run("telemetry", func(t *testing.T) {
		sweep := func(name string, extra ...string) string {
			path := filepath.Join(dir, name)
			mustRun(t, append([]string{"-exp", "table1", "-quick", "-trials", "1", "-json", path}, extra...)...)
			return path
		}
		plain := sweep("plain.json")
		side := sweep("side.json", "-trace-out", filepath.Join(dir, "trace.json"),
			"-cpuprofile", filepath.Join(dir, "cpu.pprof"))
		if !bytes.Equal(readFile(t, side), readFile(t, plain)) {
			t.Fatal("the artifact with -trace-out/-cpuprofile differs from the plain one")
		}
		for _, f := range []string{"trace.json", "cpu.pprof"} {
			if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
				t.Errorf("side file %s not written (err %v)", f, err)
			}
		}
		events, err := obs.ReadChromeTraceFile(filepath.Join(dir, "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if stats := obs.PhaseStats(events); len(stats) == 0 {
			t.Fatal("the -trace-out file has no phases for lereport -phases")
		}

		plainCells, profCells := cells(t, plain), cells(t, sweep("prof.json", "-round-profile"))
		if len(profCells) != len(plainCells) || len(plainCells) == 0 {
			t.Fatalf("-round-profile wrote %d cells, the plain sweep %d", len(profCells), len(plainCells))
		}
		for i, c := range profCells {
			if _, ok := c["round_profile"]; !ok {
				t.Fatalf("cell %d has no round_profile under -round-profile", i)
			}
			delete(c, "round_profile")
			if len(c) != len(plainCells[i]) {
				t.Fatalf("cell %d: -round-profile changed the cell's keys", i)
			}
			for k, v := range plainCells[i] {
				if !bytes.Equal(c[k], v) {
					t.Fatalf("cell %d: -round-profile changed %s: %s vs %s", i, k, c[k], v)
				}
			}
		}
	})

	// Removed flags fail loudly, naming the flag, and write nothing. The
	// deleted telemetry flags are spelled in halves so that a search of the
	// tree for them finds no live use.
	t.Run("refused", func(t *testing.T) {
		out := filepath.Join(dir, "refused.json")
		metricsFlag, debugFlag := "-metrics"+"-out", "-debug"+"-addr"
		for _, tc := range []struct {
			args []string
			want string
		}{
			{[]string{"-parallel"}, "-parallel"},
			{[]string{"-exp", "table1", "-quick", "-trials", "1", "-strip" + "-timings", "-json", out}, "-strip" + "-timings"},
			{[]string{"-shards", "2"}, "-shards"},
			{[]string{"-exp", "sweeps", "-quick", "-trials", "1", "-procs", "2", "-json", out}, "-procs"},
			{[]string{"-exp", "sweeps", "-quick", "-trials", "1", "-cells", "0:3", "-json", out}, "-cells"},
			{[]string{"-exp", "table1", "-quick", "-trials", "1", metricsFlag, filepath.Join(dir, "m.json"), "-json", out}, metricsFlag},
			{[]string{"-exp", "table1", "-quick", "-trials", "1", debugFlag, "localhost:0", "-json", out}, debugFlag},
			{[]string{"-exp", "table1", "-quick", "-trials", "-3", "-json", out}, "-trials must be >= 0"},
			{[]string{"-exp", "table1", "-quick", "-trials", "1", "-workers", "-2", "-json", out}, "-workers must be >= 0"},
		} {
			_, stderr, err := run(t, tc.args...)
			if err == nil || !strings.Contains(stderr, tc.want) {
				t.Errorf("lebench %v: err %v, stderr %q; want a failure naming %s", tc.args, err, stderr, tc.want)
			}
		}
		if _, err := os.Stat(out); err == nil {
			t.Error("a refused run still wrote an artifact")
		}
	})
}
