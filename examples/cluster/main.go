// Cluster: the probe registry in one process. A heterogeneous Sweep
// fills a DirCache directory with per-fingerprint install-time
// reports; a registry server (the same code cmd/servet-server runs)
// serves that directory over HTTP; and a "node" with the same
// hardware fingerprint opens a session on a RemoteCache and gets
// a fully cached run — zero probes executed, every section restored
// from the cluster-shared registry.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"

	"servet"
	"servet/internal/server"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "servet-cluster")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "reports")

	// Install time: sweep the cluster's machine models into one cache
	// directory — each model gets its own per-fingerprint entry file.
	machines := []*servet.Machine{servet.Dempsey(), servet.Athlon3200()}
	fmt.Println("sweeping install-time reports into", storeDir)
	if _, err := servet.Sweep(ctx, machines,
		servet.WithQuick(), servet.WithCache(servet.NewDirCache(storeDir))); err != nil {
		log.Fatal(err)
	}
	entries, err := os.ReadDir(storeDir)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		fmt.Println("  entry:", e.Name())
	}

	// The head node serves that directory as a probe registry. (A real
	// cluster runs `servet-server -store <dir>`; here the same handler
	// listens on an httptest socket.)
	reg := httptest.NewServer(server.New(server.NewDirStore(storeDir)))
	defer reg.Close()
	fmt.Println("\nregistry listening on", reg.URL)

	// A worker node with Dempsey hardware: its session consults the
	// registry and restores everything — nothing is re-measured.
	rc, err := servet.NewRemoteCache(reg.URL)
	if err != nil {
		log.Fatal(err)
	}
	node, err := servet.NewSession(servet.Dempsey(), servet.WithQuick(), servet.WithCache(rc))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := node.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnode %s run:\n", rep.Machine)
	for _, p := range rep.Provenance {
		fmt.Printf("  %-22s %s\n", p.Probe, p.Status)
	}
	if l1 := rep.CacheLevel(1); l1 != nil {
		fmt.Printf("\nL1 from the registry: %d KB\n", l1.SizeBytes>>10)
	}
}
