package main

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// environment is the provenance block of the result file: enough to tell
// what hardware and toolchain produced the numbers, and in particular how
// many hardware threads there really were — no artifact of this benchmark can
// claim p=8 on one thread, because workers is recorded next to nproc.
type environment struct {
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	CPUModel   string            `json:"cpu_model"`
	Caches     map[string]string `json:"cpu_caches"`
	GitCommit  string            `json:"git_commit"`
}

func readEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   "unknown",
		Caches:     map[string]string{},
		GitCommit:  gitCommit(),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Linux exposes cpu0's cache hierarchy as index0..indexN directories.
	const base = "/sys/devices/system/cpu/cpu0/cache/"
	if dirs, err := os.ReadDir(base); err == nil {
		for _, d := range dirs {
			read := func(name string) string {
				raw, _ := os.ReadFile(base + d.Name() + "/" + name) // absent on some kernels: stays ""
				return strings.TrimSpace(string(raw))
			}
			if size := read("size"); size != "" {
				env.Caches["L"+read("level")+strings.ToLower(read("type"))] = size
			}
		}
	}
	return env
}

// gitCommit is the commit the binary was built from: stamped by the
// toolchain when it was (go build in a git checkout), asked of git otherwise,
// and "unknown" in the driver's plain-directory checkout.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
