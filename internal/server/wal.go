package server

// Durability: per-graph write-ahead log + binary snapshots.
//
// Every served graph with durability enabled (Config.DataDir) owns one
// directory:
//
//	<DataDir>/<name>/
//	    meta.json     — load parameters (threshold, directedness), schema v1
//	    snapshot.bin  — graphio binary CSR of the graph at snapshot time
//	    wal.log       — mutations appended (and fsynced) since the snapshot
//
// The mutation worker appends a batch's ops to the WAL and fsyncs BEFORE
// applying them to the engine, so any acknowledged mutation is durable. A
// crash can leave a torn record at the WAL tail; the framing CRC detects it
// and replay stops there — by the write-ahead ordering a torn record was
// never acknowledged, so dropping it is correct.
//
// Recovery (Registry.Recover, below) reads the snapshot, replays the WAL over its
// edge list in memory, and hands the reconstructed graph to the normal
// build pipeline: the daemon pays ONE decomposition of the recovered state
// instead of re-materializing the original source and re-absorbing the
// whole mutation history. Replay is idempotent — records already compacted
// into the snapshot (a crash can land between snapshot rename and WAL
// truncate) and records that failed engine validation are skipped. A batch
// the engine refuses as a whole (a path-count overflow, a decomposition
// error) is truncated back out of the log before it is answered.
//
// Snapshots compact the WAL: after limits.snapshotEvery records the worker
// rewrites snapshot.bin (write-temp + rename) and truncates the log, so
// recovery cost is bounded by one snapshot load plus a short tail.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graphio"
)

const (
	metaFile     = "meta.json"
	snapshotFile = "snapshot.bin"
	walFile      = "wal.log"

	walOpInsert byte = 0x01
	walOpRemove byte = 0x02

	// walRecordSize frames every record: op byte, two int32 endpoints, and a
	// CRC32 (IEEE) of the preceding 9 bytes.
	walRecordSize = 1 + 4 + 4 + 4
)

// graphMeta is the durable load-parameter sidecar. It carries what the
// snapshot's graph bytes cannot: the decomposition threshold the entry was
// loaded with. Sidecars written before the kernel rule also carry an "engine"
// name; the decoder skips it like any field it does not know.
type graphMeta struct {
	Schema    int       `json:"schema"`
	Name      string    `json:"name"`
	Threshold int       `json:"threshold"`
	Directed  bool      `json:"directed"`
	SavedAt   time.Time `json:"saved_at"`
}

// walWriter owns an entry's open WAL file. It is confined to the entry's
// mutation worker goroutine — no locking.
type walWriter struct {
	f       *os.File
	records int // records currently in the file
	buf     []byte
}

// openWAL creates the WAL at path, or empties the one there: the entry's
// build-time snapshot already holds the full graph (for a recovered entry it
// compacts the replayed WAL), so the log starts empty.
func openWAL(path string) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &walWriter{f: f}, nil
}

// Append encodes ops as framed records, writes them in one syscall and
// fsyncs. Only after Append returns may the ops be applied or acknowledged.
func (w *walWriter) Append(ops []core.EdgeOp) error {
	w.buf = w.buf[:0]
	for _, op := range ops {
		w.buf = appendWALRecord(w.buf, op)
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("server: wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("server: wal sync: %w", err)
	}
	w.records += len(ops)
	return nil
}

// Unappend takes the last n appended records back out of the log and fsyncs:
// the engine refused their batch, and a replay must not apply what no epoch
// ever held.
func (w *walWriter) Unappend(n int) error {
	if err := w.f.Truncate(int64(w.records-n) * walRecordSize); err != nil {
		return fmt.Errorf("server: wal rollback: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("server: wal sync: %w", err)
	}
	w.records -= n
	return nil
}

// Reset truncates the log after a successful snapshot compaction.
func (w *walWriter) Reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("server: wal truncate: %w", err)
	}
	w.records = 0
	return nil
}

// Close releases the file handle.
func (w *walWriter) Close() error { return w.f.Close() }

func appendWALRecord(buf []byte, op core.EdgeOp) []byte {
	start := len(buf)
	b := walOpRemove
	if op.Add {
		b = walOpInsert
	}
	buf = append(buf, b)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(op.U))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(op.V))
	crc := crc32.ChecksumIEEE(buf[start : start+9])
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// replayWALFile reads the intact record prefix of the WAL at path. A torn or
// corrupt tail (short read, bad CRC, unknown op byte) terminates the replay
// at the last good record; truncated reports whether that happened.
func replayWALFile(path string) (ops []core.EdgeOp, truncated bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	return decodeWAL(data)
}

func decodeWAL(data []byte) (ops []core.EdgeOp, truncated bool, err error) {
	for off := 0; off < len(data); off += walRecordSize {
		if off+walRecordSize > len(data) {
			return ops, true, nil
		}
		rec := data[off : off+walRecordSize]
		if crc32.ChecksumIEEE(rec[:9]) != binary.LittleEndian.Uint32(rec[9:]) {
			return ops, true, nil
		}
		var add bool
		switch rec[0] {
		case walOpInsert:
			add = true
		case walOpRemove:
			add = false
		default:
			return ops, true, nil
		}
		ops = append(ops, core.EdgeOp{
			Add: add,
			U:   graph.V(int32(binary.LittleEndian.Uint32(rec[1:5]))),
			V:   graph.V(int32(binary.LittleEndian.Uint32(rec[5:9]))),
		})
	}
	return ops, false, nil
}

// writeMeta persists the load-parameter sidecar (write-temp + rename).
func writeMeta(dir string, meta graphMeta) error {
	meta.Schema = 1
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(dir, metaFile), append(data, '\n'))
}

func readMeta(dir string) (graphMeta, error) {
	data, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return graphMeta{}, err
	}
	var meta graphMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return graphMeta{}, fmt.Errorf("server: %s: %w", filepath.Join(dir, metaFile), err)
	}
	if meta.Schema != 1 {
		return graphMeta{}, fmt.Errorf("server: %s: schema %d, this build reads 1", dir, meta.Schema)
	}
	return meta, nil
}

// writeSnapshot persists g as the entry's snapshot (write-temp + rename, so
// a crash mid-write leaves the previous snapshot intact).
func writeSnapshot(dir string, g *graph.Graph) error {
	var buf bytes.Buffer
	if err := graphio.WriteBinary(&buf, g); err != nil {
		return err
	}
	return atomicWrite(filepath.Join(dir, snapshotFile), buf.Bytes())
}

// readSnapshot adopts the snapshot's CSR through graphio's sized file path
// and strict reader: a damaged file (unsorted or duplicated row, an
// undirected arc whose mirror is gone) is a DurabilityError, never a quietly
// different graph. A missing file is one too, and unwraps to os.ErrNotExist.
func readSnapshot(dir string) (*graph.Graph, error) {
	g, err := graphio.LoadFile(filepath.Join(dir, snapshotFile), "bin", false)
	if err != nil {
		return nil, &DurabilityError{Name: dir, Err: err}
	}
	return g, nil
}

// atomicWrite writes data to path via a temp file, fsync and rename.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// recoveredState is one graph reconstructed from its durable directory.
type recoveredState struct {
	meta graphMeta
	g    *graph.Graph
}

// loadDurable rebuilds a graph's in-memory state from dir: snapshot +
// WAL-tail replay. Replay is idempotent against the snapshot (inapplicable
// records are skipped).
func loadDurable(dir string) (recoveredState, error) {
	meta, err := readMeta(dir)
	if err != nil {
		return recoveredState{}, err
	}
	g, err := readSnapshot(dir)
	if err != nil {
		return recoveredState{}, err
	}
	if g.Directed() != meta.Directed {
		return recoveredState{}, fmt.Errorf("server: %s: snapshot directedness disagrees with meta", dir)
	}
	ops, _, err := replayWALFile(filepath.Join(dir, walFile))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return recoveredState{}, err
	}
	if len(ops) > 0 {
		g = replayOps(g, ops)
	}
	return recoveredState{meta: meta, g: g}, nil
}

// replayOps applies WAL records to g with ApplyBatch's edit semantics
// (core.StageEdits) and rebuilds the graph once at the final state.
// Inapplicable ops (duplicate insert, absent removal, out-of-range endpoint)
// are skipped: they are either records the engine rejected after logging, or
// records already compacted into the snapshot by a crash between snapshot
// rename and WAL truncate.
func replayOps(g *graph.Graph, ops []core.EdgeOp) *graph.Graph {
	edges, _ := core.StageEdits(g, ops)
	if edges == nil {
		return g
	}
	return graph.NewFromEdges(g.NumVertices(), edges, g.Directed())
}

// initDurable creates the entry's durable directory, writes the
// load-parameter sidecar plus the build-time snapshot, and opens its WAL.
func (r *Registry) initDurable(dir string, e *Entry, g *graph.Graph) (*walWriter, error) {
	// An unloaded predecessor of the name may still be deleting this directory.
	r.mu.RLock()
	gone := r.dropping[e.name]
	r.mu.RUnlock()
	if gone != nil {
		<-gone
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, &DurabilityError{Name: e.name, Err: err}
	}
	meta := graphMeta{
		Name:      e.name,
		Threshold: e.threshold,
		Directed:  g.Directed(),
		SavedAt:   time.Now().UTC(),
	}
	if err := writeMeta(dir, meta); err != nil {
		return nil, &DurabilityError{Name: e.name, Err: err}
	}
	if err := writeSnapshot(dir, g); err != nil {
		return nil, &DurabilityError{Name: e.name, Err: err}
	}
	r.m.durability.With("snapshot").Inc()
	wal, err := openWAL(filepath.Join(dir, walFile))
	if err != nil {
		return nil, &DurabilityError{Name: e.name, Err: err}
	}
	return wal, nil
}

// Recover scans DataDir for durable graph directories and re-enqueues a
// build job for each: snapshot + WAL-tail replay reconstructs the final
// graph in memory, and the daemon pays one decomposition of that state
// instead of re-materializing the original source and re-absorbing the whole
// mutation history. A name already loaded is skipped. It returns the names
// it enqueued. Call it once, before serving.
func (r *Registry) Recover() ([]string, error) {
	if r.cfg.DataDir == "" {
		return nil, nil
	}
	dirents, err := os.ReadDir(r.cfg.DataDir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, de := range dirents {
		name := de.Name()
		if !de.IsDir() || !nameRE.MatchString(name) {
			continue
		}
		st, err := loadDurable(filepath.Join(r.cfg.DataDir, name))
		if errors.Is(err, os.ErrNotExist) {
			// Not a durable graph directory (no meta/snapshot yet).
			continue
		} else if err != nil {
			return names, err
		}
		e := &Entry{name: name, state: StateLoading, threshold: st.meta.Threshold}
		var conflict *ConflictError
		if err := r.admit(buildJob{e: e, spec: LoadSpec{Name: name}, pre: st.g}); errors.As(err, &conflict) {
			continue
		} else if err != nil {
			return names, err
		}
		names = append(names, name)
		r.m.durability.With("recover").Inc()
	}
	return names, nil
}
