package trace

// This file holds the warning model shared by every analysis tool. It lives
// in trace (rather than internal/report, which re-exports it) so that tool
// factories can be described generically: a ToolSpec's constructor receives a
// Reporter without the trace package having to know about the collector
// machinery built on top.

// Kind classifies a warning.
type Kind uint8

// Warning kinds.
const (
	// KindRace is a possible data race (lock-set violation or unordered
	// conflicting accesses, depending on the tool).
	KindRace Kind = iota
	// KindDeadlock is a lock-order cycle or an observed deadlock.
	KindDeadlock
	// KindUseAfterFree is an access to freed guest memory.
	KindUseAfterFree
	// KindInvalidFree is a free of an already-freed block.
	KindInvalidFree
	// KindHighLevel is a high-level data race (view inconsistency, [1] in
	// the paper): every access is locked, but the lock granularity admits
	// inconsistent intermediate states.
	KindHighLevel
)

func (k Kind) String() string {
	switch k {
	case KindRace:
		return "possible data race"
	case KindDeadlock:
		return "lock order violation"
	case KindUseAfterFree:
		return "invalid access to freed memory"
	case KindHighLevel:
		return "high-level data race"
	default:
		return "invalid free"
	}
}

// Category returns the short token used in suppression files
// ("Helgrind:Race" matches KindRace).
func (k Kind) Category() string {
	switch k {
	case KindRace:
		return "Race"
	case KindDeadlock:
		return "Deadlock"
	case KindUseAfterFree:
		return "UseAfterFree"
	case KindHighLevel:
		return "HighLevelRace"
	default:
		return "InvalidFree"
	}
}

// Warning is a single tool finding. Stack identifies the reporting site and,
// together with Kind and Tool, forms the deduplication signature.
type Warning struct {
	Tool   string
	Kind   Kind
	Thread ThreadID
	Addr   Addr
	Block  BlockID
	Off    uint32
	Size   uint32
	Access AccessKind
	Stack  StackID
	// PrevStack is the other side of the conflict when the tool knows it
	// (happens-before detectors do; pure lock-set does not).
	PrevStack StackID
	// State describes the shadow state at the time of the report, e.g.
	// "shared RO, no locks" — mirroring Helgrind's "Previous state" line.
	State string
	// Count is the number of dynamic occurrences folded into this site.
	Count int
	// Seq is the global event sequence number of the first occurrence, when
	// a sequencer is installed on the collector (SetSequencer). The analysis
	// engine uses it to restore the single-pass first-seen order when merging
	// per-tool collectors; it is 0 otherwise.
	Seq uint64
}

// Reporter receives tool warnings. report.Collector is the canonical
// implementation; tools hold a Reporter rather than the concrete collector so
// that their constructors can be packaged as ToolSpec factories without an
// import cycle.
//
// A buggy program keeps hitting the same few sites, so most occurrences a
// tool reports repeat one it reported before. Fold lets a tool count such a
// repeat without building its Warning (whose State text may need
// formatting): a tool that calls Fold first builds and Adds a warning only
// when Fold returns false. Either way the reporter counts the occurrence
// exactly once.
type Reporter interface {
	// Add records one warning occurrence and reports whether it opened a new
	// site (neither folded into an existing one nor suppressed).
	Add(w Warning) bool
	// Fold records one occurrence at the existing (tool, kind, stack) site,
	// recorded or suppressed, and returns true; it returns false and records
	// nothing when no such site exists yet, in which case the caller Adds the
	// full warning. Fold must not allocate on the true path.
	Fold(tool string, kind Kind, stack StackID) bool
}
