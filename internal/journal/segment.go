package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Segmented journals bound a long campaign's resume cost. The live log
// rotates at a byte budget into numbered segments (base.000001,
// base.000002, …) and each new segment opens with the owner's header
// followed by a CHECKPOINT record — a CRC-checked bundle of every
// record committed so far (optionally compacted by a Summarize hook).
// Only the newest segment is ever live; older segments and any
// migrated-away legacy single file are fully summarized by the newest
// checkpoint and removed. Recovery therefore reads one segment: the
// newest one whose checkpoint landed durably. A crash inside the
// rotation window leaves either a newer segment without its checkpoint
// (a casualty: ignored and deleted) or an older segment not yet
// removed (superseded: ignored and deleted) — never a state where two
// segments disagree about committed records.

// checkpointRecord is the rotation summary: the raw payloads of every
// record committed before this segment's tail, replayed in order on
// load. It sits immediately after the header; a checkpoint anywhere
// else is corruption.
type checkpointRecord struct {
	Kind    string            `json:"kind"`
	Records []json.RawMessage `json:"records"`
}

// lineLen is the framed byte length of one verified record line:
// 8 hex CRC digits, a space, the payload, '\n'.
func lineLen(payload []byte) int { return 8 + 1 + len(payload) + 1 }

// segmentPath names segment idx of the journal at base.
func segmentPath(base string, idx int) string {
	return fmt.Sprintf("%s.%06d", base, idx)
}

type segRef struct {
	path string
	idx  int
}

// listSegments finds base's segment files in ascending index order.
// Quarantined files (.bad) and anything else that is not exactly six
// digits are not segments.
func listSegments(fsys FS, base string) []segRef {
	matches, err := fsys.Glob(base + ".??????")
	if err != nil {
		return nil
	}
	var segs []segRef
	for _, m := range matches {
		suffix := m[len(m)-6:]
		idx, ok := 0, true
		for _, c := range suffix {
			if c < '0' || c > '9' {
				ok = false
				break
			}
			idx = idx*10 + int(c-'0')
		}
		if !ok || idx == 0 {
			continue
		}
		segs = append(segs, segRef{path: m, idx: idx})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	return segs
}

// expandCheckpoint replaces a leading checkpoint record with the
// records it bundles, leaving State.Records flat so owning packages
// replay them with no checkpoint vocabulary of their own. A checkpoint
// anywhere but immediately after the header, or one bundling a header
// or another checkpoint, is corruption.
func expandCheckpoint(st *State) error {
	if st == nil {
		return nil
	}
	for i, rec := range st.Records {
		if rec.Kind == "checkpoint" && i != 0 {
			return &CorruptError{Line: rec.Line, Reason: "checkpoint record after the segment tail began"}
		}
	}
	if len(st.Records) == 0 || st.Records[0].Kind != "checkpoint" {
		return nil
	}
	first := st.Records[0]
	var ck checkpointRecord
	if err := json.Unmarshal(first.Payload, &ck); err != nil {
		return &CorruptError{Line: first.Line, Reason: fmt.Sprintf("undecodable checkpoint: %v", err)}
	}
	expanded := make([]Record, 0, len(ck.Records)+len(st.Records)-1)
	for _, payload := range ck.Records {
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(payload, &probe); err != nil {
			return &CorruptError{Line: first.Line, Reason: fmt.Sprintf("undecodable checkpointed record: %v", err)}
		}
		if probe.Kind == "header" || probe.Kind == "checkpoint" {
			return &CorruptError{Line: first.Line, Reason: "checkpoint bundles a " + probe.Kind + " record"}
		}
		expanded = append(expanded, Record{Kind: probe.Kind, Payload: payload, Line: first.Line})
	}
	st.Records = append(expanded, st.Records[1:]...)
	return nil
}

// SegmentedState is a journal recovered across segments: the flattened
// State (checkpoint bundle expanded into Records) plus where the live
// tail is and which files recovery superseded.
type SegmentedState struct {
	*State
	// Seg is the segment the state was recovered from; 0 means the
	// legacy single file at base.
	Seg int
	// Path is the file holding the recovered tail.
	Path string
	// TailLen is the byte length of the records after the header (and
	// checkpoint, when present) in Path — the part not yet summarized
	// by a checkpoint. Resume and rotation cost are O(TailLen), not
	// O(history).
	TailLen int
	// NeedsNewline reports that Path's final verified record lacks its
	// trailing '\n' (the crash hit between payload and newline).
	// OpenSegmented restores the byte before appending.
	NeedsNewline bool
	// Dead lists files this recovery superseded: rotation casualties
	// newer than the chosen segment, fully-summarized older segments,
	// and a migrated-away legacy file. OpenSegmented removes them.
	Dead []string
}

// finishSegState computes tail geometry, expands the checkpoint and
// wraps st.
func finishSegState(st *State, seg int, path string, endsNewline bool, dead []string) (*SegmentedState, error) {
	ss := &SegmentedState{State: st, Seg: seg, Path: path, Dead: dead}
	head := lineLen(st.Header.Payload)
	if len(st.Records) > 0 && st.Records[0].Kind == "checkpoint" {
		head += lineLen(st.Records[0].Payload)
	}
	ss.TailLen = st.ValidLen - head
	if ss.TailLen < 0 {
		// The header or checkpoint is the final record and lost its
		// newline; the tail is empty either way.
		ss.TailLen = 0
	}
	ss.NeedsNewline = !st.Truncated && !endsNewline
	if err := expandCheckpoint(st); err != nil {
		return nil, err
	}
	return ss, nil
}

// LoadSegmented recovers the journal at base, whatever its layout:
// a legacy single file, segments, or the debris of a crash inside a
// rotation or migration window. The rules, newest segment first:
//
//   - a segment parsing cleanly with its checkpoint in place is the
//     recovery root — everything older is summarized by it
//   - a checkpoint-less segment is only trusted when it is the oldest
//     on disk and no legacy bytes predate it (a fresh segmented
//     journal's first segment); anywhere else it is a rotation
//     casualty — its directory entry became durable before its
//     checkpoint did — and is marked Dead, not fatal
//   - an empty segment or one whose header write itself was torn is
//     likewise a casualty
//   - any other corruption, and any version mismatch, fails loudly
//   - if no segment is recoverable but legacy bytes exist, the
//     migration never became durable and the legacy file is still the
//     truth; with nothing valid anywhere, (nil, nil)
//
// Missing and zero-byte journals yield (nil, nil): nothing to resume,
// and a fresh run may claim them. A header-only journal is a valid
// state with no records (the run crashed after the header landed) and
// replays nothing. HasState reads the same bytes the same way for the
// clobber check, so the two sides never disagree.
func LoadSegmented(fsys FS, base string, wantVersion int) (*SegmentedState, error) {
	if fsys == nil {
		fsys = OSFS
	}
	legacyRaw, lerr := fsys.ReadFile(base)
	if lerr != nil && !os.IsNotExist(lerr) {
		return nil, lerr
	}
	legacyExists := lerr == nil
	legacyBytes := len(legacyRaw) > 0

	segs := listSegments(fsys, base)
	if len(segs) == 0 {
		if !legacyBytes {
			return nil, nil
		}
		st, err := Parse(legacyRaw, wantVersion)
		if err != nil {
			return nil, err
		}
		return finishSegState(st, 0, base, legacyRaw[len(legacyRaw)-1] == '\n', nil)
	}

	var dead []string
	anyBytes := legacyBytes
	for i := len(segs) - 1; i >= 0; i-- {
		seg := segs[i]
		raw, err := fsys.ReadFile(seg.path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		if len(raw) > 0 {
			anyBytes = true
		}
		st, perr := Parse(raw, wantVersion)
		if perr != nil {
			var ce *CorruptError
			if errors.As(perr, &ce) && ce.Line == 0 {
				// Missing header: the crash hit the very first write of
				// a fresh segment. A rotation casualty, not corruption.
				dead = append(dead, seg.path)
				continue
			}
			return nil, fmt.Errorf("%s: %w", seg.path, perr)
		}
		if st == nil {
			// Created but never written: a casualty of a crash between
			// create and the header write.
			dead = append(dead, seg.path)
			continue
		}
		hasCkpt := len(st.Records) > 0 && st.Records[0].Kind == "checkpoint"
		if !hasCkpt && !(i == 0 && !legacyBytes) {
			dead = append(dead, seg.path)
			continue
		}
		for j := 0; j < i; j++ {
			dead = append(dead, segs[j].path)
		}
		if legacyExists {
			dead = append(dead, base)
		}
		return finishSegState(st, seg.idx, seg.path, raw[len(raw)-1] == '\n', dead)
	}
	if legacyBytes {
		st, err := Parse(legacyRaw, wantVersion)
		if err != nil {
			return nil, err
		}
		return finishSegState(st, 0, base, legacyRaw[len(legacyRaw)-1] == '\n', dead)
	}
	if anyBytes {
		return nil, &CorruptError{Reason: "no recoverable segment"}
	}
	// Only empty casualties on disk: nothing to resume. A fresh
	// OpenSegmented clears the leftovers.
	return nil, nil
}

// SegmentedOptions configures a SegmentedWriter.
type SegmentedOptions struct {
	// SegmentBytes rotates the live segment once its tail — the bytes
	// appended after its checkpoint — reaches this budget. Zero keeps
	// the single-file layout (no rotation, no migration).
	SegmentBytes int
	// Version is the owner's record-format version, used to re-verify
	// the live segment before checkpointing it.
	Version int
	// Header is the owner's header record; the writer frames it at the
	// head of the journal and of every new segment.
	Header any
	// Summarize, when set, compacts the checkpoint bundle at rotation
	// (e.g. keeping only the last of a last-wins record family); nil
	// bundles every payload in file order.
	Summarize func([]json.RawMessage) ([]json.RawMessage, error)
}

// SegmentedWriter appends CRC-framed records, fsyncing after every
// Append so a kill -9 loses at most the record being written, and
// rotates its on-disk form into checkpointed segments. It is the only
// journal writer; a nil writer means "journaling disabled" and accepts
// every call as a no-op.
type SegmentedWriter struct {
	fsys FS
	base string
	opts SegmentedOptions
	f    File
	path string
	seg  int // 0 = legacy single file
	tail int
}

// OpenSegmented opens the journal at base for appending, given the
// state LoadSegmented recovered (nil for a fresh journal). The writer
// owns the header: on a fresh journal it writes opts.Header itself, so
// callers never append their own. Layout decisions:
//
//   - fresh, SegmentBytes == 0 → single file at base
//   - fresh, SegmentBytes > 0 → segment base.000001
//   - prior legacy, SegmentBytes == 0 → keep appending to base
//   - prior legacy, SegmentBytes > 0 → migrate: write base.000001 with
//     a checkpoint of the legacy records, then remove the legacy file
//   - prior segment → truncate any torn tail and keep appending to it
//
// Files the recovery marked Dead are removed once the live file is
// safely established.
func OpenSegmented(fsys FS, base string, prior *SegmentedState, opts SegmentedOptions) (*SegmentedWriter, error) {
	if fsys == nil {
		fsys = OSFS
	}
	w := &SegmentedWriter{fsys: fsys, base: base, opts: opts}
	switch {
	case prior == nil:
		// Clear rotation casualties left by a crashed run that never
		// got a valid record down.
		for _, seg := range listSegments(fsys, base) {
			if err := fsys.Remove(seg.path); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
		}
		if opts.SegmentBytes > 0 {
			if err := w.startSegment(1, nil, false); err != nil {
				return nil, err
			}
			return w, nil
		}
		f, err := openAppendFile(fsys, base)
		if err != nil {
			return nil, err
		}
		w.f, w.path = f, base
		// The single-file layout never rotates, so Append's tail
		// accounting of the header is harmless.
		if err := w.Append(w.opts.Header); err != nil {
			w.f.Close()
			return nil, err
		}
		return w, nil

	case prior.Seg == 0 && opts.SegmentBytes > 0:
		// Migration. The new first segment checkpoints everything the
		// legacy file held; only after it is durable does the legacy
		// file go. A crash anywhere in between leaves either a valid
		// checkpointed segment (which wins) or a casualty (and the
		// legacy file still wins).
		bundle := payloadsOf(prior.Records)
		if w.opts.Summarize != nil {
			var err error
			bundle, err = w.opts.Summarize(bundle)
			if err != nil {
				return nil, fmt.Errorf("journal: summarizing checkpoint: %w", err)
			}
		}
		if err := w.startSegment(1, bundle, true); err != nil {
			return nil, err
		}
		if err := fsys.Remove(base); err != nil && !os.IsNotExist(err) {
			w.f.Close()
			return nil, err
		}

	default:
		// Continue the recovered file (legacy or segment) in place.
		if prior.Truncated {
			if err := fsys.Truncate(prior.Path, int64(prior.ValidLen)); err != nil {
				return nil, err
			}
		}
		f, err := openAppendFile(fsys, prior.Path)
		if err != nil {
			return nil, err
		}
		w.f, w.path, w.seg, w.tail = f, prior.Path, prior.Seg, prior.TailLen
		if prior.NeedsNewline {
			if _, err := w.f.Write([]byte("\n")); err != nil {
				w.f.Close()
				return nil, fmt.Errorf("journal: restoring final newline: %w", err)
			}
			if err := w.f.Sync(); err != nil {
				w.f.Close()
				return nil, fmt.Errorf("journal: restoring final newline: %w", err)
			}
			w.tail++
		}
	}
	for _, p := range prior.Dead {
		// Migration rebuilds segment 1 in place, so a dead half-migrated
		// segment may now BE the live file — startSegment already
		// truncated over it.
		if p == w.path {
			continue
		}
		if err := fsys.Remove(p); err != nil && !os.IsNotExist(err) {
			w.f.Close()
			return nil, err
		}
	}
	return w, nil
}

func payloadsOf(records []Record) []json.RawMessage {
	out := make([]json.RawMessage, 0, len(records))
	for _, rec := range records {
		out = append(out, rec.Payload)
	}
	return out
}

// startSegment creates (or truncates a leftover casualty at) segment
// idx, writes the owner header and — when withCkpt — a checkpoint
// bundling the given payloads, then fsyncs the file (and, on create,
// the directory). w is only updated on success; on failure the caller's
// current file, if any, is untouched and still live.
func (w *SegmentedWriter) startSegment(idx int, bundle []json.RawMessage, withCkpt bool) error {
	path := segmentPath(w.base, idx)
	_, serr := w.fsys.Stat(path)
	existed := serr == nil
	f, err := w.fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: creating segment %s: %w", path, err)
	}
	if !existed {
		if err := w.fsys.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return fmt.Errorf("journal: fsyncing directory after creating %s: %w", path, err)
		}
	}
	fail := func(what string, err error) error {
		f.Close()
		return fmt.Errorf("journal: %s %s: %w", what, path, err)
	}
	hdr, err := json.Marshal(w.opts.Header)
	if err != nil {
		return fail("encoding header for", err)
	}
	if _, err := f.Write(Frame(hdr)); err != nil {
		return fail("writing header to", err)
	}
	if withCkpt {
		ck, err := json.Marshal(checkpointRecord{Kind: "checkpoint", Records: bundle})
		if err != nil {
			return fail("encoding checkpoint for", err)
		}
		if _, err := f.Write(Frame(ck)); err != nil {
			return fail("writing checkpoint to", err)
		}
	}
	if err := f.Sync(); err != nil {
		return fail("syncing", err)
	}
	w.f, w.path, w.seg, w.tail = f, path, idx, 0
	return nil
}

// Append marshals, frames, writes and fsyncs one record, then rotates
// if the tail passed its byte budget. The record that triggers a
// rotation is already durable in the old segment before the rotation
// starts, so a crash in any rotation window never loses it.
func (w *SegmentedWriter) Append(record any) error {
	if w == nil || w.f == nil {
		return nil
	}
	payload, err := json.Marshal(record)
	if err != nil {
		return fmt.Errorf("journal: encoding record: %w", err)
	}
	frame := Frame(payload)
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("journal: appending record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: syncing record: %w", err)
	}
	w.tail += len(frame)
	if w.opts.SegmentBytes > 0 && w.seg >= 1 && w.tail >= w.opts.SegmentBytes {
		if err := w.rotate(); err != nil {
			return fmt.Errorf("journal: rotating segment: %w", err)
		}
	}
	return nil
}

// rotate checkpoints the live segment into its successor. The live
// segment is read back from disk (disk state equals logical state:
// every Append fsyncs), re-verified, its checkpoint expanded, and the
// flat record payloads — optionally summarized — become the successor's
// checkpoint bundle. Only after the successor is durable is the old
// segment removed; a failure partway leaves the old segment live and
// the half-built successor as a casualty the next rotation truncates
// and recovery ignores.
func (w *SegmentedWriter) rotate() error {
	raw, err := w.fsys.ReadFile(w.path)
	if err != nil {
		return fmt.Errorf("reading segment for checkpoint: %w", err)
	}
	st, err := Parse(raw, w.opts.Version)
	if err != nil {
		return fmt.Errorf("re-verifying segment before checkpoint: %w", err)
	}
	if st == nil || st.Truncated {
		return errors.New("re-verifying segment before checkpoint: segment unexpectedly short")
	}
	if err := expandCheckpoint(st); err != nil {
		return err
	}
	bundle := payloadsOf(st.Records)
	if w.opts.Summarize != nil {
		bundle, err = w.opts.Summarize(bundle)
		if err != nil {
			return fmt.Errorf("summarizing checkpoint: %w", err)
		}
	}
	old := w.f
	if err := w.startSegment(w.seg+1, bundle, true); err != nil {
		return err
	}
	old.Close()
	// Superseded files are harmless to recovery (the new checkpoint
	// outranks them), so removal failures are not worth degrading over.
	for _, seg := range listSegments(w.fsys, w.base) {
		if seg.idx < w.seg {
			w.fsys.Remove(seg.path)
		}
	}
	return nil
}

// WriteRaw writes pre-framed bytes to the live segment without syncing
// or rotating — the fault injectors' seam for torn records and crash
// windows. Production callers want Append.
func (w *SegmentedWriter) WriteRaw(b []byte) error {
	if w == nil || w.f == nil {
		return nil
	}
	if _, err := w.f.Write(b); err != nil {
		return fmt.Errorf("journal: appending record: %w", err)
	}
	w.tail += len(b)
	return nil
}

// Close closes the live segment.
func (w *SegmentedWriter) Close() error {
	if w == nil || w.f == nil {
		return nil
	}
	return w.f.Close()
}
