package core

import (
	"runtime"
	"testing"
)

// assertShardedGolden is the one parallelism-parity harness every
// sharded-sweep golden uses: render the result at parallelism 1, then
// demand byte-identical renderings at 2, 4 and NumCPU. run must fold
// everything order-sensitive (including float probe-time sums) into
// its returned string.
func assertShardedGolden(t *testing.T, run func(parallelism int) string) {
	t.Helper()
	seq := run(1)
	for _, p := range []int{2, 4, runtime.NumCPU()} {
		if par := run(p); par != seq {
			t.Errorf("parallelism %d diverges from sequential:\nseq: %s\npar: %s", p, seq, par)
		}
	}
}
