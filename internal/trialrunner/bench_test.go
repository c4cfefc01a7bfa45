package trialrunner

import (
	"fmt"
	"testing"

	"pride/internal/rng"
)

// cpuTrial is a RNG-bound trial comparable to one Monte-Carlo shard: it
// burns a fixed number of draws from its own derived stream.
func cpuTrial(i int) uint64 {
	s := rng.Derived(1, uint64(i))
	total := uint64(0)
	for d := 0; d < 200_000; d++ {
		total += s.Uint64()
	}
	return total
}

// BenchmarkRunScaling measures wall-clock across worker counts on a fixed
// 64-trial workload. On an idle multi-core machine ns/op should fall
// near-linearly from workers=1 through the physical core count:
//
//	go test ./internal/trialrunner -bench=RunScaling -benchtime=3x
func BenchmarkRunScaling(b *testing.B) {
	sum := func(a, n uint64) uint64 { return a + n }
	serial := fold(mapAll(b, 1, 64, cpuTrial), sum)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got := fold(mapAll(b, workers, 64, cpuTrial), sum)
				if got != serial {
					b.Fatalf("workers=%d produced %#x, serial produced %#x", workers, got, serial)
				}
			}
		})
	}
}
