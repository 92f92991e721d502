// Package mpisim is a message-passing runtime for simulated multicore
// clusters: ranks are deterministic simulation processes placed on
// specific cores, and point-to-point transfers are routed through the
// communication channel the pair of cores actually shares — a common
// cache level, the node's memory system, or the interconnect — with
// eager and rendezvous protocols like the MPI libraries of the paper
// (MPICH2 with a shared-memory device, HP MPI with SHM and IBV
// devices).
package mpisim

import (
	"fmt"

	"servet/internal/netsim"
	"servet/internal/sim"
	"servet/internal/topology"
)

// AnySource matches messages from every sender in Recv.
const AnySource = -1

// protocol message kinds.
const (
	kindEager = iota
	kindRTS
	kindCTS
	kindData
)

// internal tags (user tags must be non-negative).
const (
	tagBarrier = -1 - iota
	tagBcast
	tagGather
	tagReduce
	tagScatter
)

// World is a live message-passing universe: a machine, a set of ranks
// placed on cores, and the shared transport resources.
type World struct {
	k         *sim.Kernel
	m         *topology.Machine
	placement []int
	ranks     []*Rank
	boxes     []*sim.Mailbox
	fabric    *netsim.Fabric
	shm       []*sim.Resource // per-node shared-memory path (contended channels)
	err       error
}

// Rank is one message-passing process.
type Rank struct {
	w    *World
	id   int
	core int // global core id
	p    *sim.Proc
}

// channel describes the transport between a specific pair of cores.
type channel struct {
	name      string
	latencyNS int64
	// serializationNS returns the sender-side copy/injection time.
	serializationNS func(bytes int64) int64
	// res, when non-nil, serializes transfers of this channel.
	res   *sim.Resource
	eager int64
	// network marks cross-node channels (control messages ride the
	// fabric's latency).
	network bool
}

// IdentityPlacement returns the placement used by the paper's probes:
// rank r runs on global core r.
func IdentityPlacement(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Run spawns nranks ranks on the machine, placed on the given cores
// (nil placement = identity), executes body in every rank and runs the
// simulation to completion. It returns the virtual time at which the
// last event completed. A deadlock (e.g. a Recv with no matching Send)
// is returned as an error.
//
// Run is safe for concurrent callers sharing one *topology.Machine:
// every call builds its own kernel, mailboxes, shared-memory
// resources and network fabric, and the machine description is only
// read (ChannelClass, SplitCore, SharedCacheLevel), never mutated. The
// sharded communication-costs sweep relies on this — see
// TestConcurrentWorldsShareMachine, which runs under -race in CI.
// Within one world, rank bodies execute strictly one at a time under
// the kernel's baton, so closures over shared result slices (as the
// bench helpers use) need no locking.
func Run(m *topology.Machine, nranks int, placement []int, body func(r *Rank)) (elapsedNS int64, err error) {
	if placement == nil {
		placement = IdentityPlacement(nranks)
	}
	if len(placement) != nranks {
		return 0, fmt.Errorf("mpisim: placement has %d entries for %d ranks", len(placement), nranks)
	}
	total := m.TotalCores()
	seen := make(map[int]bool, nranks)
	for r, c := range placement {
		if c < 0 || c >= total {
			return 0, fmt.Errorf("mpisim: rank %d placed on core %d, machine has %d", r, c, total)
		}
		if seen[c] {
			return 0, fmt.Errorf("mpisim: core %d hosts more than one rank", c)
		}
		seen[c] = true
	}

	k := sim.New()
	w := &World{
		k:         k,
		m:         m,
		placement: placement,
		ranks:     make([]*Rank, nranks),
		boxes:     make([]*sim.Mailbox, nranks),
		shm:       make([]*sim.Resource, m.Nodes),
	}
	if m.Net != nil {
		w.fabric = netsim.New(k, m.Net, m.Nodes)
	}
	for i := range w.shm {
		w.shm[i] = sim.NewResource(k)
	}
	for r := 0; r < nranks; r++ {
		w.boxes[r] = &sim.Mailbox{}
	}
	for r := 0; r < nranks; r++ {
		rank := &Rank{w: w, id: r, core: placement[r]}
		w.ranks[r] = rank
		k.Go(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			rank.p = p
			body(rank)
		})
	}
	if err := k.Run(); err != nil {
		return k.Now(), fmt.Errorf("mpisim: %w", err)
	}
	return k.Now(), nil
}

// channelFor builds the transport ChannelClass selects between two
// global cores: the fabric for the network class, a memcpy for a
// self-send, the matching m.Comm.Channels entry, or the node-default
// memory-bandwidth path when no entry matches.
func (w *World) channelFor(srcCore, dstCore int) channel {
	m := w.m
	srcNode, _ := m.SplitCore(srcCore)
	class := ChannelClass(m, srcCore, dstCore)
	name := className(m, class)
	switch class {
	case classNetwork:
		return channel{
			name:            name,
			latencyNS:       w.fabric.LatencyNS(),
			serializationNS: w.fabric.SerializationNS,
			res:             nil, // the fabric owns the NIC resource
			eager:           w.fabric.EagerThreshold(),
			network:         true,
		}
	case classSelf:
		// A memcpy in the rank's own cache.
		return channel{
			name:            name,
			latencyNS:       sim.NS(m.Comm.SoftwareOverheadUS * 1000 / 2),
			serializationNS: func(bytes int64) int64 { return sim.NS(float64(bytes) / (2 * m.Memory.PerCoreGBs)) },
			eager:           m.Comm.EagerThresholdBytes,
		}
	case classNodeDefault:
		return channel{
			name:            name,
			latencyNS:       sim.NS(1000),
			serializationNS: func(bytes int64) int64 { return sim.NS(float64(bytes) / m.Memory.PerCoreGBs) },
			res:             w.shm[srcNode],
			eager:           m.Comm.EagerThresholdBytes,
		}
	}
	ch := &m.Comm.Channels[class]
	var res *sim.Resource
	if ch.Contended {
		res = w.shm[srcNode]
	}
	bw, largeBW, largeAt := ch.BandwidthGBs, ch.LargeBandwidthGBs, ch.LargeBytes
	return channel{
		name:      name,
		latencyNS: sim.NS(ch.LatencyUS * 1000),
		serializationNS: func(bytes int64) int64 {
			b := bw
			if largeAt > 0 && bytes > largeAt && largeBW > 0 {
				b = largeBW
			}
			return sim.NS(float64(bytes) / b)
		},
		res:   res,
		eager: m.Comm.EagerThresholdBytes,
	}
}

// ChannelNameBetween reports which transport serves a pair of global
// cores ("same-L2", "intra-node", "network", ...), for the
// communication-layer reports. It reads the name off ChannelClass and
// builds no world.
func ChannelNameBetween(m *topology.Machine, srcCore, dstCore int) string {
	return className(m, ChannelClass(m, srcCore, dstCore))
}
