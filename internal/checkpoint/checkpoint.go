// Package checkpoint implements the on-disk format for simulator
// snapshots: a versioned, checksummed container around a gob-encoded
// pipeline.Snapshot, written atomically (temp file + rename) so a crash
// mid-write can never leave a live checkpoint path pointing at a torn
// file. Loading validates magic, version, length, and a CRC-64 of the
// payload; any damage — truncation, bit rot, a different format — is
// reported as an error wrapping simerr.ErrCorrupt so callers can discard
// the file and recompute instead of dying.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc64"
	"path/filepath"

	"rvpsim/internal/core"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/simerr"
	"rvpsim/internal/vfs"
)

// magic identifies a checkpoint file. Version is separate so readers can
// distinguish "not a checkpoint at all" from "a checkpoint from another
// era of the format".
var magic = [8]byte{'R', 'V', 'P', 'C', 'K', 'P', 'T', '\n'}

// Version is the current checkpoint format version. Bump it whenever
// the Snapshot schema changes incompatibly; old files then fail loudly
// as corrupt/unsupported rather than misrestoring.
const Version uint32 = 2

var crcTable = crc64.MakeTable(crc64.ECMA)

func init() {
	// The predictor state travels inside Snapshot as a core.PredictorState
	// interface value; gob needs every concrete type registered.
	for _, st := range core.AllPredictorStates() {
		gob.Register(st)
	}
}

// header is the fixed-size preamble: magic, version, payload length,
// payload CRC-64 (ECMA).
const headerSize = 8 + 4 + 8 + 8

// Encode serializes a snapshot into the container format.
func Encode(snap *pipeline.Snapshot) ([]byte, error) {
	if snap == nil {
		return nil, simerr.Newf("checkpoint", "nil snapshot")
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return nil, simerr.New("checkpoint", fmt.Errorf("encode: %w", err))
	}
	buf := make([]byte, headerSize, headerSize+payload.Len())
	copy(buf[:8], magic[:])
	binary.LittleEndian.PutUint32(buf[8:12], Version)
	binary.LittleEndian.PutUint64(buf[12:20], uint64(payload.Len()))
	binary.LittleEndian.PutUint64(buf[20:28], crc64.Checksum(payload.Bytes(), crcTable))
	return append(buf, payload.Bytes()...), nil
}

// Decode parses a container produced by Encode. Damage of any kind is an
// error wrapping simerr.ErrCorrupt.
func Decode(data []byte) (*pipeline.Snapshot, error) {
	if err := Verify(data); err != nil {
		return nil, err
	}
	var snap pipeline.Snapshot
	if err := gob.NewDecoder(bytes.NewReader(data[headerSize:])).Decode(&snap); err != nil {
		return nil, corrupt("decode: %v", err)
	}
	return &snap, nil
}

// Verify checks the container's structure — magic, version, geometry,
// payload CRC — without gob-decoding the payload. It is what `rvpadmin
// fsck` runs over every checkpoint: cheap, and independent of the gob
// type registry. Damage wraps simerr.ErrCorrupt.
func Verify(data []byte) error {
	if len(data) < headerSize {
		return corrupt("truncated header (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return corrupt("bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != Version {
		return corrupt("unsupported version %d (want %d)", v, Version)
	}
	n := binary.LittleEndian.Uint64(data[12:20])
	want := binary.LittleEndian.Uint64(data[20:28])
	payload := data[headerSize:]
	if uint64(len(payload)) != n {
		return corrupt("payload is %d bytes, header says %d", len(payload), n)
	}
	if got := crc64.Checksum(payload, crcTable); got != want {
		return corrupt("payload checksum %#x, header says %#x", got, want)
	}
	return nil
}

// corrupt builds a checkpoint error wrapping simerr.ErrCorrupt.
func corrupt(format string, args ...any) error {
	return simerr.New("checkpoint", fmt.Errorf(format+": %w", append(args, simerr.ErrCorrupt)...))
}

// Save writes a snapshot to path atomically via the OS filesystem.
func Save(path string, snap *pipeline.Snapshot) error {
	return SaveFS(vfs.OS, path, snap)
}

// SaveFS writes a snapshot to path atomically through fsys: the
// container is written and fsync'd to a temp file in the same
// directory, renamed over path, and the directory entry is fsync'd.
// Readers therefore always see either the previous checkpoint or the
// new one, never a torn mix — and the new one only once it would
// survive a crash. Every failure (including the directory fsync, whose
// loss would let a crash resurrect the old checkpoint after the save
// was acknowledged) fails the save, and no temp file is left behind on
// any error path, so retries don't litter the state dir.
func SaveFS(fsys vfs.FS, path string, snap *pipeline.Snapshot) error {
	data, err := Encode(snap)
	if err != nil {
		return err
	}
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return simerr.New("checkpoint", err)
	}
	if err := vfs.WriteFileAtomic(fsys, path, data, 0o644); err != nil {
		return simerr.New("checkpoint", err)
	}
	return nil
}

// Load reads and validates the checkpoint at path via the OS
// filesystem.
func Load(path string) (*pipeline.Snapshot, error) {
	return LoadFS(vfs.OS, path)
}

// LoadFS reads and validates the checkpoint at path through fsys. A
// missing file is reported as the underlying fs error (check with
// errors.Is(err, fs.ErrNotExist)); a damaged file wraps
// simerr.ErrCorrupt.
func LoadFS(fsys vfs.FS, path string) (*pipeline.Snapshot, error) {
	data, err := vfs.ReadFile(fsys, path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
