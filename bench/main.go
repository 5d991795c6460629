// Command bench is the repository's one benchmark: it assembles the online
// control loop (and the offline evaluator) from the layers' public
// functions, drives a seeded workload through it in closed loop, checks the
// outputs, and prints every metric by name as one JSON object. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// environment is embedded in every result: numbers only compare between
// runs that share it.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	// Network states what the control-plane RPCs crossed.
	Network string `json:"network"`
	// FsyncFS is the filesystem type the journals were fsynced to.
	FsyncFS string `json:"fsync_target_fs"`
}

// fsNames maps statfs magic numbers to the names stat(1) prints.
var fsNames = map[int64]string{
	0xef53: "ext2/ext3", 0x58465342: "xfs", 0x9123683e: "btrfs",
	0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x2fc12fc1: "zfs",
}

func readEnvironment(stateRoot string) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: "unknown", Network: "loopback TCP, zero emulated switch latency (not a link)", FsyncFS: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	var st syscall.Statfs_t
	dir := stateRoot
	for dir != "" && syscall.Statfs(dir, &st) != nil {
		if parent := filepath.Dir(dir); parent != dir {
			dir = parent
		} else {
			dir = ""
		}
	}
	if dir != "" {
		env.FsyncFS = fmt.Sprintf("0x%x", st.Type)
		if name, ok := fsNames[int64(st.Type)]; ok {
			env.FsyncFS = name
		}
	}
	return env
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Uint64("seed", 2025, "seed every input is derived from")
		seconds   = flag.Float64("seconds", 10, "how long to measure")
		traced    = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes bench/out/<workload>.trace.json")
		stateRoot = flag.String("state-root", ".bench_build/state", "directory for journals (created, emptied on exit)")
		outDir    = flag.String("out", "bench/out", "directory for the traced run's span file")
		writeRef  = flag.String("write-ref", "", "write this run's outputs as the reference into the given directory")
		recordTo  = flag.String("record", "", "append this run's result to the given result-set file (one JSON object per line)")
		compare   = flag.Bool("compare", false, "compare two result sets made with -record: -compare A.jsonl B.jsonl; exits 1 on a regression")
		benchFile = flag.String("benchmark", "BENCHMARK.json", "the metric definitions -compare judges by")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result-set files"))
		}
		regressed, err := compareFiles(os.Stdout, *benchFile, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	sp, err := specByName(*workload)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	cfg := runConfig{spec: sp, seed: *seed, seconds: *seconds, traced: *traced != 0, stateRoot: *stateRoot, setups: 3, pinning: *writeRef != ""}
	out, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	env := readEnvironment(*stateRoot)
	if cfg.traced {
		path := filepath.Join(*outDir, sp.name+".trace.json")
		if err := writeTrace(path, traceFile{Workload: sp.name, Seed: *seed, Env: env, Spans: out.spans}); err != nil {
			fatal(err)
		}
	}
	if *writeRef != "" {
		if out.ref.Phi == nil && out.ref.Tables == nil {
			fatal(fmt.Errorf("workload %s has no output a reference pins", sp.name))
		}
		b, err := json.Marshal(out.ref)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*writeRef, filepath.Base(refName(sp.name, *seed))), append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	for _, note := range out.notes {
		fmt.Fprintln(os.Stderr, "bench: check failed:", note)
	}
	envJSON, _ := json.Marshal(env)
	fmt.Printf("environment %s\n", envJSON)
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	if *recordTo != "" {
		if err := appendRecord(*recordTo, record{Workload: sp.name, Seed: *seed, Trace: *traced, Env: env, Result: res}); err != nil {
			fatal(err)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
