// Package scenario generates concurrent guest programs with known ground
// truth and differentially tests every analysis tool against them.
//
// The paper's evaluation rests on a handful of bugs seeded into one SIP
// server; this package turns that methodology into a machine: a seeded,
// reproducible random generator builds guest programs over the full VM API
// (threads, mutexes, rwlocks, condition variables, semaphores, message
// queues, heap blocks) and plants bugs from a fixed catalog — data races in
// lock-set- and happens-before-visible variants, lock-order deadlocks, lost
// signals, use-after-free/double-free and high-level (view-consistency)
// races. Every planted bug records which tools must report it (and, for the
// differential variants, which tools must stay silent), and every scenario
// has a bug-free control variant whose report must be empty under all tools.
//
// The conformance harness (conformance.go) runs each generated program
// through the whole tool registry both live and as an offline replay of its
// recorded trace, and asserts that the two reports are byte-identical, that no planted bug is missed, and that the
// control variant is clean. Failures print the generator and scheduler seeds,
// so any finding is reproducible with cmd/scenariogen.
//
// Bug constructions are deliberately schedule-independent: each planted bug
// is built so its expected tools report it under EVERY scheduler seed (e.g.
// racing accesses are write/write so the lock-set delayed-initialisation
// cannot hide them, lock-order threads are serialised so the cycle is in the
// order graph without ever deadlocking the run).
package scenario

import (
	"fmt"

	"repro/internal/trace"
)

// BugKind enumerates the catalog of plantable bugs.
type BugKind uint8

// The bug catalog.
const (
	// BugRaceWW is a plain data race: two concurrent threads write the same
	// word with no common lock and no ordering. Visible to the lock-set,
	// happens-before and hybrid detectors under every schedule.
	BugRaceWW BugKind = iota
	// BugRaceLocksetOnly is a lock-discipline violation hidden from
	// happens-before tools: the two unlocked writes are ordered by a
	// semaphore handoff. Helgrind's lock-set (MaskHelgrind ignores semaphore
	// edges) reports it; DJIT and the hybrid (MaskFull) must stay silent —
	// the §4.3 "schedule hides the race from happens-before" family made
	// deterministic.
	BugRaceLocksetOnly
	// BugLostSignal is a lost condition-variable wakeup: the producer
	// signals before the consumer waits (enforced by a semaphore, so the
	// signal is lost under every schedule), the consumer's timed wait
	// expires, and both sides then touch the payload without the bound
	// mutex. The corrupting write/write pair is unordered and unlocked, so
	// all three race detectors must report it.
	BugLostSignal
	// BugLockOrder is a lock-order inversion: one thread takes A then B, a
	// later (serialised, so the run itself can never deadlock) thread takes
	// B then A. The lock-order graph tool must report the cycle.
	BugLockOrder
	// BugUseAfterFree frees a block in a worker and reads it from the
	// joining thread. Memcheck must report the invalid access; the race
	// detectors ignore freed blocks.
	BugUseAfterFree
	// BugDoubleFree frees the same block twice (serialised by join).
	// Memcheck must report the invalid free.
	BugDoubleFree
	// BugHighLevel is the paper's §2.1 high-level race: thread A updates two
	// fields of a record in one critical section (treating them as a unit),
	// thread B updates each field in its own critical section. Every access
	// is locked — only the view-consistency checker can see it.
	BugHighLevel

	numBugKinds = 7
)

// Kinds returns the full catalog, in declaration order.
func Kinds() []BugKind {
	out := make([]BugKind, numBugKinds)
	for i := range out {
		out[i] = BugKind(i)
	}
	return out
}

func (k BugKind) String() string { return k.Family() }

// Family is the short warning-family name recorded in manifests and reports.
func (k BugKind) Family() string {
	switch k {
	case BugRaceWW:
		return "race-ww"
	case BugRaceLocksetOnly:
		return "race-lockset-only"
	case BugLostSignal:
		return "lost-signal"
	case BugLockOrder:
		return "lock-order"
	case BugUseAfterFree:
		return "use-after-free"
	case BugDoubleFree:
		return "double-free"
	case BugHighLevel:
		return "highlevel-split"
	default:
		return fmt.Sprintf("bug-kind-%d", uint8(k))
	}
}

// KindByFamily is the inverse of Family; ok is false for unknown names.
func KindByFamily(name string) (BugKind, bool) {
	for _, k := range Kinds() {
		if k.Family() == name {
			return k, true
		}
	}
	return 0, false
}

// Expectation names one warning a planted bug must (or must not) produce:
// the reporting tool, the warning kind and — when the bug lives in a heap
// block — the allocation tag that identifies the block in the report.
type Expectation struct {
	Tool string
	Kind trace.Kind
	// BlockTag, when non-empty, restricts the match to warnings whose block
	// resolves to this allocation tag. Lock-order warnings carry no block
	// and match on (Tool, Kind) alone.
	BlockTag string
}

func (e Expectation) String() string {
	if e.BlockTag == "" {
		return fmt.Sprintf("%s/%s", e.Tool, e.Kind.Category())
	}
	return fmt.Sprintf("%s/%s on %q", e.Tool, e.Kind.Category(), e.BlockTag)
}

// Bug is one planted bug instance within a scenario.
type Bug struct {
	// Index is the bug's position within the scenario (stable across
	// variants); Tag is the allocation-tag prefix of every block the bug
	// owns, "bug<Index>-<family>".
	Index int
	Kind  BugKind
	Tag   string
}

// Expected returns the warnings the bug's buggy variant must produce. The
// canonical tool names match the Spec defaults of the detector packages
// (see AllTools).
func (b Bug) Expected() []Expectation {
	switch b.Kind {
	case BugRaceWW, BugLostSignal:
		return []Expectation{
			{Tool: ToolLockset, Kind: trace.KindRace, BlockTag: b.Tag},
			{Tool: ToolDJIT, Kind: trace.KindRace, BlockTag: b.Tag},
			{Tool: ToolHybrid, Kind: trace.KindRace, BlockTag: b.Tag},
		}
	case BugRaceLocksetOnly:
		return []Expectation{
			{Tool: ToolLockset, Kind: trace.KindRace, BlockTag: b.Tag},
		}
	case BugLockOrder:
		return []Expectation{
			{Tool: ToolDeadlock, Kind: trace.KindDeadlock},
		}
	case BugUseAfterFree:
		return []Expectation{
			{Tool: ToolMemcheck, Kind: trace.KindUseAfterFree, BlockTag: b.Tag},
		}
	case BugDoubleFree:
		return []Expectation{
			{Tool: ToolMemcheck, Kind: trace.KindInvalidFree, BlockTag: b.Tag},
		}
	case BugHighLevel:
		return []Expectation{
			{Tool: ToolHighLevel, Kind: trace.KindHighLevel, BlockTag: b.Tag},
		}
	default:
		return nil
	}
}

// Absent returns the differential assertions: tools that must NOT warn about
// this bug's blocks even in the buggy variant. (Tools neither expected nor
// absent-listed are still covered: CheckBuggy rejects any warning that no
// planted bug accounts for.)
func (b Bug) Absent() []Expectation {
	switch b.Kind {
	case BugRaceLocksetOnly:
		// The semaphore orders the writes, so happens-before-based tools
		// must stay silent — this is the differential heart of the catalog.
		return []Expectation{
			{Tool: ToolDJIT, Kind: trace.KindRace, BlockTag: b.Tag},
			{Tool: ToolHybrid, Kind: trace.KindRace, BlockTag: b.Tag},
		}
	case BugUseAfterFree, BugDoubleFree:
		// Race detectors ignore freed blocks (§4.2.1: freed memory is the
		// memory checker's business).
		return []Expectation{
			{Tool: ToolLockset, Kind: trace.KindRace, BlockTag: b.Tag},
			{Tool: ToolDJIT, Kind: trace.KindRace, BlockTag: b.Tag},
			{Tool: ToolHybrid, Kind: trace.KindRace, BlockTag: b.Tag},
		}
	case BugHighLevel:
		// Every access is locked; only view consistency may fire.
		return []Expectation{
			{Tool: ToolLockset, Kind: trace.KindRace, BlockTag: b.Tag},
			{Tool: ToolDJIT, Kind: trace.KindRace, BlockTag: b.Tag},
			{Tool: ToolHybrid, Kind: trace.KindRace, BlockTag: b.Tag},
		}
	default:
		return nil
	}
}

// opKind enumerates the benign workload operations a worker script can hold.
type opKind uint8

const (
	// opLockedWriteUnit locks the resource mutex and writes every field —
	// the whole "unit", so view-consistency stays trivially satisfied.
	opLockedWriteUnit opKind = iota
	// opLockedReadUnit locks the resource mutex and reads every field.
	opLockedReadUnit
	// opLockedPair takes two resource mutexes in ascending index order (a
	// globally consistent order, so the lock-order graph stays acyclic) and
	// updates both units.
	opLockedPair
	// opRWRead takes a read-only resource's rwlock in read mode and reads
	// every field.
	opRWRead
	// opQueuePut posts one message to a queue.
	opQueuePut
	// opQueueGet takes one message from a queue (blocking; the generator
	// balances puts and gets so this always completes).
	opQueueGet
	// opYield is an explicit preemption point.
	opYield
	// opSleep advances virtual time.
	opSleep
)

// op is one step of a benign worker script.
type op struct {
	kind  opKind
	res   int   // resource index (opLocked*, opRWRead)
	res2  int   // second resource (opLockedPair; > res)
	queue int   // queue index (opQueuePut/Get)
	ticks int64 // opSleep duration
}

// resource is one shared, mutex-guarded record in the benign workload.
type resource struct {
	fields   int  // 4-byte fields; every critical section touches all of them
	readOnly bool // guarded by an rwlock, written only during main's init
}

// Scenario is one generated guest program: a benign concurrent workload plus
// a set of planted bugs, each with a buggy and a control (fixed) variant.
type Scenario struct {
	// Seed is the generator seed; Name is "s<seed>".
	Seed int64

	resources []resource
	queues    int
	scripts   [][]op // one per benign worker
	Bugs      []Bug
}

// Name returns the scenario's stable identifier.
func (s *Scenario) Name() string { return fmt.Sprintf("s%d", s.Seed) }

// Workers returns the number of benign worker threads.
func (s *Scenario) Workers() int { return len(s.scripts) }

// Resources returns the number of shared benign resources.
func (s *Scenario) Resources() int { return len(s.resources) }

// Families returns the planted bug families, in plant order.
func (s *Scenario) Families() []string {
	out := make([]string, len(s.Bugs))
	for i, b := range s.Bugs {
		out[i] = b.Kind.Family()
	}
	return out
}

// HasKind reports whether the scenario plants a bug of the given kind.
func (s *Scenario) HasKind(k BugKind) bool {
	for _, b := range s.Bugs {
		if b.Kind == k {
			return true
		}
	}
	return false
}
