// Tune: the search-driven generalization of the tiling example.
// Where examples/tiling derives one tile size from a closed-form rule
// (half the L1), this walkthrough measures the machine once, caches
// the report, and lets servet.Tune search the tile axis with the
// tiled-kernel objective — each candidate tile is scored by actually
// running a tiled transpose on the simulated memory system, so the
// search sees effects the formula ignores (associativity conflicts,
// page placement). It then cross-checks the winner against the
// closed-form answer and against a search over broadcast algorithms.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"servet"
)

func main() {
	ctx := context.Background()

	// 1. Characterize the machine once, through the session cache: the
	// first run measures, re-runs restore from the file — the same
	// install-time parameter file a cluster registry would serve.
	cache := filepath.Join(os.TempDir(), "servet-tune-example.json")
	os.Remove(cache)
	ses, err := servet.NewSession(servet.Dempsey(),
		servet.WithCache(servet.NewFileCache(cache)),
		servet.WithOptions(servet.Options{Seed: 1, CommReps: 2, BWSizes: []int64{4096, 65536}}),
	)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := ses.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("characterized %s: L1=%dKB, %d comm layers (cached at %s)\n\n",
		rep.Machine, rep.CacheLevel(1).SizeBytes>>10, len(rep.Comm.Layers), cache)

	// 2. Declare what may vary and what "better" means, and search.
	// The tiled-kernel objective replays a tiled transpose on the
	// simulated memory system for every candidate tile edge.
	space := servet.TuneSpace{Axes: []servet.TuneAxis{
		servet.Pow2Axis("tile", 4, 256),
	}}
	obj, err := servet.NewObjective(servet.ObjectiveSpec{
		Name:   servet.ObjectiveTiledKernel,
		Params: json.RawMessage(`{"n": 256, "elem_bytes": 8}`),
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := servet.Tune(ctx, rep, space, obj,
		servet.TuneBudget(16), servet.TuneParallelism(4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Summary())
	for _, tp := range res.Trace {
		fmt.Printf("  [%s]  %.2f cycles/element\n", res.Space.Describe(tp.Config), tp.Score)
	}

	// 3. Cross-check against the closed-form Section V rule (two tiles
	// in half the L1). The searched optimum should be at least as good
	// as the formula's pick — it scored that tile too.
	formulaTile, err := servet.TileSize(rep, 1, 8, 2, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	best, err := res.BestValue("tile")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nclosed-form tile (half of L1): %d, searched tile: %d\n", formulaTile, best.Int)

	// 4. The same engine tunes discrete algorithm choices: pick a
	// broadcast algorithm for 16 ranks from the measured comm layers.
	bcastSpace := servet.TuneSpace{Axes: []servet.TuneAxis{
		servet.ChoiceAxis("algorithm", "flat", "binomial-tree"),
	}}
	bcastObj, err := servet.NewObjective(servet.ObjectiveSpec{
		Name:   servet.ObjectiveBcastModel,
		Params: json.RawMessage(`{"ranks": 16, "bytes": 4096}`),
	})
	if err != nil {
		log.Fatal(err)
	}
	bres, err := servet.Tune(ctx, rep, bcastSpace, bcastObj)
	if err != nil {
		log.Fatal(err)
	}
	algo, _ := bres.BestValue("algorithm")
	fmt.Printf("broadcast for 16 ranks x 4KB: %s (%.2f us predicted)\n", algo, bres.BestScore)

	// 5. The result is deterministic — rerunning the identical search
	// (any parallelism) reproduces it byte for byte, which is what
	// lets a registry coalesce and share tune results cluster-wide.
	again, err := servet.Tune(ctx, rep, space, obj,
		servet.TuneBudget(16), servet.TuneParallelism(1))
	if err != nil {
		log.Fatal(err)
	}
	res.Provenance, again.Provenance = servet.TuneResult{}.Provenance, servet.TuneResult{}.Provenance
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		log.Fatal("tune result was not reproducible")
	}
	fmt.Println("re-run at parallelism 1 reproduced the result byte for byte")
}
