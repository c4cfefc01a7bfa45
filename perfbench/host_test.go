package main

import (
	"os"
	"strconv"
	"testing"
	"time"
)

// TestCPUClocksAgree checks that selfCPU and childCPU read the same task
// clock: a busy loop shows in both by about the same amount. The daemon's
// metrics rely on childCPU meaning what selfCPU means in-process.
func TestCPUClocksAgree(t *testing.T) {
	pid := strconv.Itoa(os.Getpid())
	s0, c0 := selfCPU(), childCPU(pid)
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x = x*6364136223846793005 + 1442695040888963407
	}
	s, c := selfCPU()-s0, childCPU(pid)-c0
	if s < 50*time.Millisecond || c < 50*time.Millisecond {
		t.Fatalf("a 300 ms busy loop read %v on selfCPU and %v on childCPU (x=%d)", s, c, x)
	}
	if d := (s - c).Abs(); d > s/5+10*time.Millisecond {
		t.Errorf("selfCPU read %v and childCPU %v for the same busy loop", s, c)
	}
}
