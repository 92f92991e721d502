// Tiling: the paper's first Section V use case. Detect the cache
// sizes with Servet, derive a tile size that keeps the working set in
// L1, and show on the simulated machine that a tiled matrix transpose
// costs far fewer cycles per element than the naive loop.
package main

import (
	"context"
	"fmt"
	"log"

	"servet"
)

const (
	n         = 512 // matrix is n x n float64
	elemBytes = 8
)

func main() {
	m := servet.Dempsey()

	// 1. Detect the cache hierarchy (cache-size benchmark only).
	ses, err := servet.NewSession(m, servet.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	det, _, err := ses.DetectCaches(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	rep := &servet.Report{Machine: m.Name}
	for _, d := range det {
		rep.Caches = append(rep.Caches, servet.CacheResult{
			Level: d.Level, SizeBytes: d.SizeBytes, Method: d.Method,
		})
	}
	fmt.Printf("detected caches on %s:", m.Name)
	for _, c := range rep.Caches {
		fmt.Printf(" L%d=%dKB", c.Level, c.SizeBytes>>10)
	}
	fmt.Println()

	// 2. Pick a tile so two tiles (source + destination) fill at most
	// half of the L1.
	tile, err := servet.TileSize(rep, 1, elemBytes, 2, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	if tile > n {
		tile = n
	}
	fmt.Printf("tile size from L1: %dx%d elements\n\n", tile, tile)

	// 3. Compare naive vs tiled transpose on the simulated memory
	// system: dst[i][j] = src[j][i].
	naive := transposeCycles(m, func(visit func(i, j int)) {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				visit(i, j)
			}
		}
	})
	tiled := transposeCycles(m, func(visit func(i, j int)) {
		for ti := 0; ti < n; ti += tile {
			for tj := 0; tj < n; tj += tile {
				for i := ti; i < ti+tile && i < n; i++ {
					for j := tj; j < tj+tile && j < n; j++ {
						visit(i, j)
					}
				}
			}
		}
	})

	fmt.Printf("naive transpose: %.1f cycles/element\n", naive)
	fmt.Printf("tiled transpose: %.1f cycles/element\n", tiled)
	fmt.Printf("speedup: %.2fx\n", naive/tiled)
	if tiled >= naive {
		log.Fatal("tiling did not help; tuning failed")
	}
}

// transposeCycles replays dst[i][j] = src[j][i] under the given loop
// order on the simulated memory system and returns cycles per element.
func transposeCycles(m *servet.Machine, order func(visit func(i, j int))) float64 {
	ms, err := servet.NewMemorySimulator(m, 1)
	if err != nil {
		log.Fatal(err)
	}
	src := ms.Alloc(n * n * elemBytes)
	dst := ms.Alloc(n * n * elemBytes)
	total := 0.0
	count := 0
	order(func(i, j int) {
		// Read src[j][i], write dst[i][j].
		total += ms.Access(0, src+int64((j*n+i)*elemBytes))
		total += ms.Access(0, dst+int64((i*n+j)*elemBytes))
		count++
	})
	return total / float64(count)
}
