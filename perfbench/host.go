package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"time"
)

// hostRecord describes the machine a run measured on, so a noisy run
// can be blamed on the host rather than the code. It is printed as a
// JSON line before the result line.
type hostRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      int     `json:"trace"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	RefALUms   float64 `json:"host.ref_alu_ms"`
	RefMemMS   float64 `json:"host.ref_mem_ms"`
}

// printHost times the reference kernels and prints the host record.
// It runs after the measurements, so the kernels' 32 MiB buffer does
// not show in the run's peak RSS.
func printHost(workload string, seed int64, trace int) {
	rec := hostRecord{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		RefALUms:   refALU(),
		RefMemMS:   refMem(),
	}
	b, err := json.Marshal(map[string]hostRecord{"host": rec})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: host record: %v\n", err)
		return
	}
	fmt.Println(string(b))
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// refALU is the compute reference kernel: the median wall time, in
// milliseconds, of SHA-256 over a 64 KiB buffer, 64 times over.
func refALU() float64 {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	var trials []float64
	for t := 0; t < 5; t++ {
		t0 := time.Now()
		for i := 0; i < 64; i++ {
			sum := sha256.Sum256(buf)
			buf[0] = sum[0]
		}
		trials = append(trials, ms(time.Since(t0)))
	}
	return median(trials)
}

// refMem is the memory reference kernel: the median wall time, in
// milliseconds, of a dependent random walk of 1 Mi steps over a
// 32 MiB single-cycle permutation.
func refMem() float64 {
	const n = 8 << 20 // uint32 slots: 32 MiB
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle yields one cycle through every slot.
	rng := rand.New(rand.NewPCG(1, 2))
	for i := n - 1; i > 0; i-- {
		j := rng.IntN(i)
		next[i], next[j] = next[j], next[i]
	}
	var trials []float64
	p := uint32(0)
	for t := 0; t < 3; t++ {
		t0 := time.Now()
		for i := 0; i < 1<<20; i++ {
			p = next[p]
		}
		trials = append(trials, ms(time.Since(t0)))
	}
	if p == n { // unreachable; keeps the walk from being optimized away
		fmt.Fprintln(os.Stderr, p)
	}
	return median(trials)
}
