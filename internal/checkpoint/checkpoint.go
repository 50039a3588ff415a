// Package checkpoint persists a sweep's completed (cell, shard) accumulators
// in a crash-safe, append-only file, so an interrupted run can resume without
// redoing finished work — and without perturbing a single bit of the final
// results (the engine merges a restored accumulator exactly like a freshly
// folded one; see engine.RunGrid).
//
// File layout (all integers little-endian):
//
//	magic    uint32  'D','G','C','K'
//	version  uint16  WireVersion
//	reserved uint16  0
//	metaLen  uint32, metaLen bytes of Meta JSON, crc32 uint32 (IEEE, of the JSON)
//	records: repeated  payloadLen uint32, payload, crc32 uint32 (IEEE, of the payload)
//
// Each record payload is one completed unit:
//
//	cell uint32, shard uint32, trialLo uint64, trialHi uint64,
//	engine.TrialSummary encoding (rest of the payload)
//
// Crash safety comes from the framing, not from atomic renames: the header is
// synced before the first record, every Append syncs after writing, and
// recovery treats an incomplete trailing record (the torn write of a crash)
// as absent — Resume truncates it away and appends after it. A CRC mismatch
// or structural violation anywhere before the tail is real corruption and
// fails with a typed error instead of being silently dropped.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"reflect"
	"sync"

	"dualgraph/internal/engine"
)

// WireVersion is the checkpoint file format version. Unknown versions are
// rejected with *ErrVersion rather than misread. The version covers what the
// accumulators mean as well as how they are framed: version 1 files hold
// trials drawn from per-process math/rand sources, version 2 files trials
// drawn from the SplitMix64 streams of internal/rng. A resume must not
// splice shards of two generators under one spec hash.
const WireVersion = 2

// fileMagic brands a checkpoint file ("DGCK" little-endian).
const fileMagic uint32 = 0x4B434744

// ErrCorrupt reports checkpoint data that is structurally damaged beyond the
// torn-tail tolerance: a failed CRC, an impossible record, a mangled header.
// Errors wrap it, so errors.Is(err, ErrCorrupt) identifies them all.
var ErrCorrupt = errors.New("checkpoint: corrupt checkpoint file")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// ErrVersion reports a checkpoint written by a file format this build does
// not speak.
type ErrVersion struct {
	// Got is the rejected version number.
	Got int
}

func (e *ErrVersion) Error() string {
	return fmt.Sprintf("checkpoint: unsupported file version %d (this build speaks version %d)",
		e.Got, WireVersion)
}

// ErrSpecMismatch reports a checkpoint whose recorded sweep identity differs
// from the run trying to resume it — a stale file from an edited spec, or
// from different stream parameters. Resuming it would splice accumulators
// from a different experiment, so it is rejected up front.
type ErrSpecMismatch struct {
	// Got is the identity recorded in the file.
	Got Meta
	// Want is the identity of the resuming run.
	Want Meta
}

func (e *ErrSpecMismatch) Error() string {
	if e.Got.SpecHash != e.Want.SpecHash {
		return fmt.Sprintf("checkpoint: file was written for sweep %.12s…, this run is sweep %.12s… (the spec changed; delete the checkpoint or restore the spec)",
			e.Got.SpecHash, e.Want.SpecHash)
	}
	return fmt.Sprintf("checkpoint: file was written with run parameters %+v, this run uses %+v",
		e.Got, e.Want)
}

// Meta identifies the run a checkpoint belongs to. Everything that changes
// the bit-level content of an accumulator is part of the identity: the sweep
// itself (by canonical hash), the trial depth, and the stream statistics
// configuration. Recover compares the whole struct.
type Meta struct {
	// SpecHash is the canonical hash of the sweep document (spec.Sweep.Hash).
	SpecHash string `json:"spec_hash"`
	// Cells is the expanded grid size.
	Cells int `json:"cells"`
	// Trials is the per-cell Monte Carlo depth.
	Trials int `json:"trials"`
	// Quantiles are the tracked stream targets (nil = engine defaults).
	Quantiles []float64 `json:"quantiles,omitempty"`
	// ExactK is the stream spill threshold (0 = stats default).
	ExactK int `json:"exact_k,omitempty"`
}

// MetaFor assembles a run identity from its sweep hash, expanded grid size,
// per-cell trial depth, and stream configuration. Every caller that creates
// or resumes a checkpoint (dgsim, the coordinator) goes through this one
// constructor so the identities compare equal exactly when the runs would be
// bit-identical.
func MetaFor(specHash string, cells, trials int, sc engine.StreamConfig) Meta {
	m := Meta{SpecHash: specHash, Cells: cells, Trials: trials, ExactK: sc.ExactK}
	// Normalize the no-quantiles cases: an empty slice would not survive the
	// omitempty JSON round trip, so it must mean the same thing as nil.
	if len(sc.Quantiles) > 0 {
		m.Quantiles = sc.Quantiles
	}
	return m
}

// Record is one persisted work unit: a completed (cell, shard) accumulator
// and the trial range it covers.
type Record struct {
	Cell    int
	Shard   int
	TrialLo int
	TrialHi int
	Summary *engine.TrialSummary
}

// SeedMap converts recovered records into the engine.Hooks.Seed form, whose
// units RunGrid pre-reports to its ledger. Later records win on duplicate
// keys (a well-formed file has none).
func SeedMap(recs []Record) map[engine.ShardKey]*engine.TrialSummary {
	seed := make(map[engine.ShardKey]*engine.TrialSummary, len(recs))
	for _, r := range recs {
		seed[engine.ShardKey{Cell: r.Cell, Shard: r.Shard}] = r.Summary
	}
	return seed
}

// Writer appends records to a checkpoint file. Append is safe for concurrent
// use — the engine's onShard callbacks arrive from multiple workers.
type Writer struct {
	mu sync.Mutex
	f  *os.File
}

// Create writes a fresh checkpoint at path (truncating any existing file),
// records meta in the header, and syncs it before returning, so even a crash
// during the first shard leaves a recoverable (empty) checkpoint.
func Create(path string, meta Meta) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: encode meta: %w", err)
	}
	hdr := make([]byte, 0, 12+len(metaJSON)+4)
	hdr = binary.LittleEndian.AppendUint32(hdr, fileMagic)
	hdr = binary.LittleEndian.AppendUint16(hdr, WireVersion)
	hdr = binary.LittleEndian.AppendUint16(hdr, 0)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(metaJSON)))
	hdr = append(hdr, metaJSON...)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(metaJSON))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: write header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: sync header: %w", err)
	}
	return &Writer{f: f}, nil
}

// Append persists one completed unit: frame, write, sync. After Append
// returns, the record survives a crash.
func (w *Writer) Append(rec Record) error {
	if rec.Summary == nil {
		return fmt.Errorf("checkpoint: record (%d, %d) has no summary", rec.Cell, rec.Shard)
	}
	blob, err := rec.Summary.MarshalBinary()
	if err != nil {
		return fmt.Errorf("checkpoint: encode summary: %w", err)
	}
	payload := make([]byte, 0, 4+4+8+8+len(blob))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(rec.Cell))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(rec.Shard))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(rec.TrialLo))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(rec.TrialHi))
	payload = append(payload, blob...)
	frame := make([]byte, 0, 4+len(payload)+4)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))

	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("checkpoint: write record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: sync record: %w", err)
	}
	return nil
}

// Close releases the file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// Recover reads a checkpoint, validates it against want, and returns every
// intact record plus the byte offset where the intact prefix ends. An
// incomplete trailing record — the torn write of a crash — is tolerated and
// excluded (validLen stops before it); damage anywhere else fails with an
// error wrapping ErrCorrupt. A version this build does not speak fails with
// *ErrVersion; a file recorded for a different run fails with
// *ErrSpecMismatch.
func Recover(path string, want Meta) ([]Record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: %w", err)
	}
	recs, validLen, err := decode(data, want)
	if err != nil {
		return nil, 0, err
	}
	return recs, validLen, nil
}

// decode parses a full checkpoint image. Split from Recover for fuzzing.
func decode(data []byte, want Meta) ([]Record, int64, error) {
	if len(data) < 12 {
		return nil, 0, corrupt("need 12 header bytes, have %d", len(data))
	}
	if magic := binary.LittleEndian.Uint32(data[0:]); magic != fileMagic {
		return nil, 0, corrupt("bad magic %#x", magic)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != WireVersion {
		return nil, 0, &ErrVersion{Got: int(v)}
	}
	if reserved := binary.LittleEndian.Uint16(data[6:]); reserved != 0 {
		return nil, 0, corrupt("nonzero reserved bits %#x", reserved)
	}
	metaLen := binary.LittleEndian.Uint32(data[8:])
	if uint64(len(data)) < 12+uint64(metaLen)+4 {
		return nil, 0, corrupt("truncated header: meta needs %d bytes", metaLen)
	}
	metaJSON := data[12 : 12+metaLen]
	if sum := binary.LittleEndian.Uint32(data[12+metaLen:]); sum != crc32.ChecksumIEEE(metaJSON) {
		return nil, 0, corrupt("header checksum mismatch")
	}
	var got Meta
	if err := json.Unmarshal(metaJSON, &got); err != nil {
		return nil, 0, corrupt("undecodable meta: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		return nil, 0, &ErrSpecMismatch{Got: got, Want: want}
	}

	shards := engine.Shards(want.Trials)
	var recs []Record
	seen := make(map[engine.ShardKey]bool)
	off := int64(12) + int64(metaLen) + 4
	rest := data[off:]
	for len(rest) > 0 {
		if len(rest) < 4 {
			break // torn tail: length prefix itself incomplete
		}
		payloadLen := binary.LittleEndian.Uint32(rest)
		if uint64(len(rest)) < 4+uint64(payloadLen)+4 {
			break // torn tail: record body incomplete
		}
		payload := rest[4 : 4+payloadLen]
		sum := binary.LittleEndian.Uint32(rest[4+payloadLen:])
		if sum != crc32.ChecksumIEEE(payload) {
			// A bad checksum on a *complete* frame is bit rot, not a torn
			// write: refuse rather than silently redo (or worse, trust) it.
			return nil, 0, corrupt("record %d checksum mismatch", len(recs))
		}
		rec, err := decodeRecord(payload, want, shards)
		if err != nil {
			return nil, 0, fmt.Errorf("record %d: %w", len(recs), err)
		}
		key := engine.ShardKey{Cell: rec.Cell, Shard: rec.Shard}
		if seen[key] {
			return nil, 0, corrupt("duplicate record for unit (%d, %d)", rec.Cell, rec.Shard)
		}
		seen[key] = true
		recs = append(recs, rec)
		frame := int64(4) + int64(payloadLen) + 4
		off += frame
		rest = rest[frame:]
	}
	return recs, off, nil
}

// decodeRecord validates one payload against the run identity: unit in
// range, trial range equal to the engine's partition, summary intact and
// covering exactly that range.
func decodeRecord(payload []byte, want Meta, shards int) (Record, error) {
	const header = 4 + 4 + 8 + 8
	if len(payload) < header {
		return Record{}, corrupt("payload needs %d header bytes, have %d", header, len(payload))
	}
	rec := Record{
		Cell:    int(binary.LittleEndian.Uint32(payload[0:])),
		Shard:   int(binary.LittleEndian.Uint32(payload[4:])),
		TrialLo: int(binary.LittleEndian.Uint64(payload[8:])),
		TrialHi: int(binary.LittleEndian.Uint64(payload[16:])),
	}
	if rec.Cell < 0 || rec.Cell >= want.Cells || rec.Shard < 0 || rec.Shard >= shards {
		return Record{}, corrupt("unit (%d, %d) outside %d cells × %d shards",
			rec.Cell, rec.Shard, want.Cells, shards)
	}
	if lo, hi := engine.ShardRange(want.Trials, rec.Shard); rec.TrialLo != lo || rec.TrialHi != hi {
		return Record{}, corrupt("unit (%d, %d) claims trials [%d, %d), partition says [%d, %d)",
			rec.Cell, rec.Shard, rec.TrialLo, rec.TrialHi, lo, hi)
	}
	rec.Summary = &engine.TrialSummary{}
	if err := rec.Summary.UnmarshalBinary(payload[header:]); err != nil {
		return Record{}, fmt.Errorf("%w: summary: %v", ErrCorrupt, err)
	}
	if rec.Summary.Trials != int64(rec.TrialHi-rec.TrialLo) {
		return Record{}, corrupt("unit (%d, %d) summary covers %d trials, range is %d",
			rec.Cell, rec.Shard, rec.Summary.Trials, rec.TrialHi-rec.TrialLo)
	}
	return rec, nil
}

// Resume recovers path, truncates any torn tail, and returns the intact
// records together with a Writer positioned to append after them — the
// one-call entry point for "pick up where the crash left off".
func Resume(path string, want Meta) ([]Record, *Writer, error) {
	recs, validLen, err := Recover(path, want)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("checkpoint: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	return recs, &Writer{f: f}, nil
}
