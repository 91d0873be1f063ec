package journal

import (
	"errors"
	"fmt"
)

// Owner is what a journal-owning package (internal/campaign,
// internal/fleet) brings to the shared lifecycle: the name its
// messages start with and its typed sentinels. Open, Reflavour and
// Guard speak through it, so every owner keeps its own error surface
// while opening, resuming and degrading exist once, here.
type Owner struct {
	// Name prefixes the owner's messages ("campaign", "fleet").
	Name string
	// Exists refuses a fresh run over a journal that already holds
	// state.
	Exists error
	// Corrupt replaces a *CorruptError.
	Corrupt error
	// Mismatch replaces a *VersionError; the owner's header check
	// returns it too.
	Mismatch error
	// Degraded wraps a disk fault that stops a strict run.
	Degraded error
}

// Reflavour turns the typed integrity errors of this package into the
// owner's sentinels and messages; any other error (nil included)
// passes through unchanged.
func (o Owner) Reflavour(err error) error {
	var ce *CorruptError
	if errors.As(err, &ce) {
		if ce.Line > 0 {
			return fmt.Errorf("%w: line %d: %v", o.Corrupt, ce.Line, ce.Reason)
		}
		return fmt.Errorf("%w: %v", o.Corrupt, ce.Reason)
	}
	var ve *VersionError
	if errors.As(err, &ve) {
		return fmt.Errorf("%w: journal version %d, want %d", o.Mismatch, ve.Got, ve.Want)
	}
	return err
}

// Open opens the owner's journal at base for appending. With resume it
// recovers whatever LoadSegmented finds and hands a non-nil state to
// adopt before anything on disk changes, so a journal adopt refuses
// (another campaign's, say) is left exactly as it was. Without resume
// it refuses existing state (HasState) with o.Exists. Either way it
// then continues or starts the journal through OpenSegmented. Missing,
// zero-byte and casualty-only journals hold no state: a fresh run
// claims them and a resume starts from scratch without calling adopt.
func (o Owner) Open(fsys FS, base string, resume bool, opts SegmentedOptions, adopt func(*State) error) (*SegmentedWriter, error) {
	var prior *SegmentedState
	if resume {
		var err error
		if prior, err = LoadSegmented(fsys, base, opts.Version); err != nil {
			return nil, o.Reflavour(err)
		}
		if prior != nil {
			if err := adopt(prior.State); err != nil {
				return nil, err
			}
		}
	} else if HasState(fsys, base) {
		return nil, fmt.Errorf("%w: %s", o.Exists, base)
	}
	w, err := OpenSegmented(fsys, base, prior, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: opening journal: %w", o.Name, err)
	}
	return w, nil
}

// Guard is one run's journal under the shared disk-fault policy. A
// scripted crash (ErrCrashed) comes back verbatim, so chaos harnesses
// resume from whatever hit the disk. Under Strict any other append
// fault stops the run, wrapped in the owner's Degraded sentinel.
// Otherwise the journal is dropped: the writer is closed, Degrade
// records the fault, and the run finishes in memory — the resume
// guarantee is never lost silently. A Guard with a nil W (journaling
// disabled, or already degraded) accepts every call as a no-op.
type Guard struct {
	W      *SegmentedWriter
	Owner  Owner
	Strict bool
	Logf   func(format string, args ...any)
	// Degrade is told the fault that dropped the journal.
	Degrade func(fault error)
}

// Append journals one record under the policy.
func (g *Guard) Append(record any) error {
	err := g.W.Append(record)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrCrashed):
		return err
	case g.Strict:
		return fmt.Errorf("%w: %v", g.Owner.Degraded, err)
	}
	g.Logf("%s: journal degraded, finishing in memory: %v", g.Owner.Name, err)
	g.W.Close()
	g.W = nil
	g.Degrade(err)
	return nil
}

// Close closes the journal, if one is still open.
func (g *Guard) Close() error { return g.W.Close() }
