package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// manifest is BENCHMARK.json, read from the checkout root: the workload
// and metric names, and the bound of each end-to-end metric.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runRecord is one run inside a results file.
type runRecord struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Seed     uint64 `json:"seed"`
	runResult
}

// resultsFile is what `run --out` writes and `compare` reads.
type resultsFile struct {
	Commit     string      `json:"commit"`
	Go         string      `json:"go"`
	NProc      int         `json:"nproc"`
	Seed       uint64      `json:"seed"`
	Repeat     int         `json:"repeat"`
	Seconds    float64     `json:"seconds"`
	MixedFlags []string    `json:"serve_mixed_flags"`
	Runs       []runRecord `json:"runs"`
	// Claim is always null: this harness measures, it claims no gain.
	Claim *string `json:"claim"`
}

// runAll runs every workload, tracing off and then on, each run in a
// fresh process so heap, GC state and peak RSS do not leak between them.
func runAll(args []string) error {
	fs := flag.NewFlagSet("benchmark run", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "seed of the first repeat; repeat r uses seed+r")
	out := fs.String("out", "", "results file to write")
	repeat := fs.Int("repeat", 1, "runs per workload and tracing mode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("run: --out FILE is required")
	}
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	seconds := float64(man.RunSeconds)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{
		Commit: gitCommit(), Go: runtime.Version(), NProc: nproc,
		Seed: *seed, Repeat: *repeat, Seconds: seconds, MixedFlags: mixedFlags,
	}
	wrong := 0
	for r := range *repeat {
		for _, def := range workloadDefs {
			for trace := range 2 {
				rec := runRecord{Workload: def.Name, Trace: trace, Seed: *seed + uint64(r)}
				fmt.Printf("== %s seed %d trace %d\n", rec.Workload, rec.Seed, trace)
				cmd := exec.Command(self,
					"--workload", def.Name, "--seed", strconv.FormatUint(rec.Seed, 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
				cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
				var stdout bytes.Buffer
				cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
				cmd.Stderr = os.Stderr
				runErr := cmd.Run()
				if err := json.Unmarshal(lastLine(stdout.Bytes()), &rec.runResult); err != nil {
					return fmt.Errorf("%s: no result line (%v): %w", def.Name, runErr, err)
				}
				if !rec.Correct {
					wrong++
				}
				file.Runs = append(file.Runs, rec)
			}
		}
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if wrong > 0 {
		return fmt.Errorf("%d runs had failed or wrong operations", wrong)
	}
	return nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = bytes.Clone(sc.Bytes())
		}
	}
	return last
}

// gitCommit names the measured commit when the checkout is a git
// repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		commit += "+uncommitted"
	}
	return commit
}
