package fleet

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/ixp"
	"repro/internal/mip"
	"repro/internal/nova"
	"repro/internal/pktgen"
	"repro/internal/workloads"
)

// Workload adapts one compiled Nova program to the fleet harness: how
// to initialize a chip's table memory, how to stage one packet into a
// thread slot, and how to digest the packet's observable output. The
// three paper benchmarks come pre-adapted via Compile; tests and new
// workloads fill the struct directly.
type Workload struct {
	// Name labels the workload in reports.
	Name string
	// Kind is the packet template the workload consumes.
	Kind pktgen.Kind
	// Comp is the compilation Compile built Prog from: its allocation
	// (model size, solver effort, moves, spills) and static program
	// statistics are what the paper's Figures 5-7 tabulate. Nil for
	// workloads filled in by hand.
	Comp *nova.Compilation
	// Prog is the compiled program every engine runs.
	Prog *asm.Program
	// EntryRegs are the physical registers holding the entry arguments.
	EntryRegs []asm.Reg
	// Init loads lookup tables into a fresh chip's memories (may be nil).
	Init func(chip *ixp.Chip)
	// Stage writes packet p into the chip's memory for thread slot
	// (slots are engine-major: slot = engine*threads + thread) and
	// returns the entry argument values.
	Stage func(chip *ixp.Chip, slot int, p *pktgen.Packet) []uint32
	// Collect digests the packet's observable output — its halt result
	// words plus whatever memory the program wrote — after the batch
	// ran. Equal digests mean bit-identical output.
	Collect func(chip *ixp.Chip, slot int, p *pktgen.Packet, results []uint32) uint64
}

// Digest folds words into h (pass DigestSeed to start) with the
// splitmix64 finalizer; the fleet's per-flow output digests are sums
// of these per-packet values.
func Digest(h uint64, words []uint32) uint64 {
	for _, w := range words {
		h = mix64(h ^ uint64(w))
	}
	return h
}

// DigestSeed is the initial value for Digest chains.
const DigestSeed = 0x9e3779b97f4a7c15

// Per-slot SDRAM layout of the standard workload adapters, the only
// place a paper workload's packet addresses are computed: each thread
// slot stages its packet at a fixed, disjoint base.
const (
	tcpSlotBase   = 0x100   // + slot*0x400: AES/Kasumi packet words
	tcpSlotStride = 0x400   // fits payloads up to ~4 KB
	natSrcBase    = 0x100   // + slot*0x800: NAT IPv6 input
	natDstBase    = 0x20000 // + slot*0x800: NAT IPv4 output
	natSlotStride = 0x800   // fits the 512-chunk payload cap
)

// sumSource is the synthetic soak kernel ("sum"): a few memory
// references and ALU ops per packet, so chaos soaks can push tens of
// millions of packets through the fleet machinery in seconds instead
// of paying crypto-benchmark simulation cost per packet.
const sumSource = `
fun main(base: word, x: word) -> word {
  let (a0, a1) = sdram[2](base);
  let (t0, t1) = sram[2](base);
  let s = a0 + a1 + x + t0 + t1;
  sdram(base) <- (s, a0 ^ a1);
  s
}`

// Per-slot SDRAM stride for the sum workload: 2 staged words + 2
// written words fit comfortably in 16.
const sumSlotStride = 0x10

// Compile builds one of the paper's benchmark workloads (aes, kasumi,
// nat) or the synthetic soak kernel (sum) into a fleet-ready adapter.
// mo overrides the ILP solver options (nil = 4-minute default).
func Compile(name string, mo *mip.Options) (*Workload, error) {
	var src string
	w := &Workload{Name: strings.ToLower(name)}
	switch w.Name {
	case "aes":
		src = workloads.AESSource
		w.Kind = pktgen.KindTCP4
	case "kasumi":
		src = workloads.KasumiSource
		w.Kind = pktgen.KindTCP4
	case "nat":
		src = workloads.NATSource
		w.Kind = pktgen.KindIPv6
	case "sum":
		src = sumSource
		w.Kind = pktgen.KindIPv6
	default:
		return nil, fmt.Errorf("fleet: unknown workload %q (want aes, kasumi, nat, or sum)", name)
	}
	opts := nova.DefaultOptions()
	if mo != nil {
		opts.MIP = mo
	} else {
		opts.MIP = &mip.Options{Time: 4 * time.Minute}
	}
	comp, err := nova.Compile(w.Name+".nova", src, opts)
	if err != nil {
		return nil, err
	}
	regs, err := comp.EntryRegs()
	if err != nil {
		return nil, err
	}
	w.Comp = comp
	w.Prog = comp.Asm
	w.EntryRegs = regs
	switch w.Name {
	case "aes":
		w.Init = func(chip *ixp.Chip) { workloads.InitAES(chip.SRAM()) }
		w.Stage = stageTCP(func(base uint32, p *pktgen.Packet) []uint32 {
			return []uint32{base, uint32(p.PayloadBytes / 16)}
		})
		w.Collect = collectTCP
	case "kasumi":
		w.Init = func(chip *ixp.Chip) { workloads.InitKasumi(chip.SRAM(), chip.Scratch()) }
		w.Stage = stageTCP(func(base uint32, p *pktgen.Packet) []uint32 {
			return []uint32{base, uint32(p.PayloadBytes / 8)}
		})
		w.Collect = collectTCP
	case "nat":
		w.Stage = func(chip *ixp.Chip, slot int, p *pktgen.Packet) []uint32 {
			src6 := uint32(natSrcBase + slot*natSlotStride)
			dst4 := uint32(natDstBase + slot*natSlotStride)
			copy(chip.SDRAM()[src6:], p.Words)
			return []uint32{src6, dst4, natChunks(p)}
		}
		w.Collect = func(chip *ixp.Chip, slot int, p *pktgen.Packet, results []uint32) uint64 {
			dst4 := natDstBase + slot*natSlotStride
			out := chip.SDRAM()[dst4 : dst4+6+2*int(natChunks(p))]
			return Digest(Digest(DigestSeed, out), results)
		}
	case "sum":
		w.Stage = func(chip *ixp.Chip, slot int, p *pktgen.Packet) []uint32 {
			base := uint32(tcpSlotBase + slot*sumSlotStride)
			copy(chip.SDRAM()[base:], p.Words[:2])
			return []uint32{base, p.Words[2]}
		}
		w.Collect = func(chip *ixp.Chip, slot int, p *pktgen.Packet, results []uint32) uint64 {
			base := tcpSlotBase + slot*sumSlotStride
			return Digest(Digest(DigestSeed, chip.SDRAM()[base:base+2]), results)
		}
	}
	return w, nil
}

// RunBatch loads w's program on chip, stages batch[i] into thread slot
// i and runs the chip until every staged thread halts, failing once
// that takes more than budget cycles. Halt results come back in slot
// order. Run runs every batch through it.
func (w *Workload) RunBatch(chip *ixp.Chip, batch []*pktgen.Packet, budget int64) (*ixp.Stats, error) {
	chip.Load(w.Prog)
	threads := chip.Cfg.Threads
	for i, p := range batch {
		if err := chip.Engines[i/threads].SetArgs(i%threads, w.EntryRegs, w.Stage(chip, i, p)); err != nil {
			return nil, err
		}
	}
	return chip.Run(budget)
}

// Solo runs one batch of w on a fresh chip built from o: every thread
// slot s carries the packet pktgen builds from seed s+1 with
// payloadBytes of payload. The paper's throughput, chip-scaling and
// latency-hiding rows (cmd/novabench) and ixpsim's single-chip run are
// Solo batches.
func Solo(w *Workload, o Options, payloadBytes int) (*ixp.Stats, error) {
	o = o.Normalize()
	chip := ixp.NewChip(o.MachineConfig(), o.Engines)
	if w.Init != nil {
		w.Init(chip)
	}
	batch := make([]*pktgen.Packet, o.Engines*o.Threads)
	for slot := range batch {
		p := &pktgen.Packet{PayloadBytes: payloadBytes, Kind: w.Kind}
		if w.Kind == pktgen.KindIPv6 {
			p.Words = pktgen.BuildIPv6TCP(int64(slot+1), payloadBytes)
		} else {
			p.Words = pktgen.BuildTCP(int64(slot+1), payloadBytes).Words
		}
		batch[slot] = p
	}
	return w.RunBatch(chip, batch, o.BatchBudget)
}

// natChunks is the NAT workload's paylen argument: 2-word payload
// chunks.
func natChunks(p *pktgen.Packet) uint32 { return uint32((p.PayloadBytes + 7) / 8) }

// stageTCP stages a TCP4-template packet at the slot's base and
// derives the entry arguments with args.
func stageTCP(args func(base uint32, p *pktgen.Packet) []uint32) func(*ixp.Chip, int, *pktgen.Packet) []uint32 {
	return func(chip *ixp.Chip, slot int, p *pktgen.Packet) []uint32 {
		base := uint32(tcpSlotBase + slot*tcpSlotStride)
		copy(chip.SDRAM()[base:], p.Words)
		return args(base, p)
	}
}

// collectTCP digests an in-place-transformed TCP4 packet (AES and
// Kasumi encrypt the payload and patch the checksum) plus the halt
// results.
func collectTCP(chip *ixp.Chip, slot int, p *pktgen.Packet, results []uint32) uint64 {
	base := tcpSlotBase + slot*tcpSlotStride
	out := chip.SDRAM()[base : base+len(p.Words)]
	return Digest(Digest(DigestSeed, out), results)
}
