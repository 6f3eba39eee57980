package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// Host fingerprints where a result was measured. Results whose
// fingerprints differ are not comparable.
type Host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Seed       int64  `json:"seed"`
	Network    string `json:"network"`
}

func fingerprint(seed int64) Host {
	return Host{CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: seed, Network: "loopback"}
}

// cpuModel reads the first "model name" from /proc/cpuinfo, or
// GOOS/GOARCH where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOOS + "/" + runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}
