package wal

// Checkpoint files. A checkpoint images one immutable snapshot whose delta
// overlay is empty, keeping only what the graph cannot rebuild: the graph
// itself, the primary index configuration, the secondary index
// definitions, and the record sequence number it covers. Load rebuilds the
// primary and every view from the decoded graph (index.DecodeStore), so no
// checkpoint byte is trusted as an adjacency-list entry. Files are named
// checkpoint-<epoch> (zero-padded so lexicographic order is epoch order),
// written via temp-file + fsync + rename, and carry a whole-file CRC-32C so
// a damaged image is detected at load and quarantined rather than trusted.
//
// Version 2 is written. Version 1 images, which also stored both primary
// CSRs, are still read: the CSRs are skipped and rebuilt like any other.
// An image of a later version is refused with an error but never
// quarantined, since it is not damaged, only newer than this reader.

import (
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/aplusdb/aplus/internal/enc"
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/storage"
	"github.com/aplusdb/aplus/internal/vfs"
)

const (
	ckptPrefix  = "checkpoint-"
	ckptMagic   = 0x41504C43 // "APLC"
	ckptVersion = 2
)

// ckptInfo identifies one on-disk checkpoint file.
type ckptInfo struct {
	name  string
	epoch uint64
	seq   uint64 // filled once the file has been read
	bytes int64
}

func ckptName(epoch uint64) string { return fmt.Sprintf("%s%016d", ckptPrefix, epoch) }

// listCheckpoints returns the checkpoint files in dir, newest epoch first.
// Quarantined (.corrupt) and temp files are ignored.
func listCheckpoints(fs vfs.FS, dir string) ([]ckptInfo, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []ckptInfo
	for _, name := range names {
		if !strings.HasPrefix(name, ckptPrefix) || strings.Contains(name, ".") {
			continue
		}
		epoch, err := strconv.ParseUint(strings.TrimPrefix(name, ckptPrefix), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, ckptInfo{name: name, epoch: epoch})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].epoch > out[j].epoch })
	return out, nil
}

// encodeCheckpoint serializes a snapshot image (graph + store) with header
// and trailing CRC.
func encodeCheckpoint(seq, epoch uint64, g *storage.Graph, st *index.Store) []byte {
	w := enc.NewWriter()
	w.U32(ckptMagic)
	w.U8(ckptVersion)
	w.Uvarint(seq)
	w.Uvarint(epoch)
	storage.EncodeGraph(w, g)
	index.EncodeStore(w, st)
	// Appending the CRC to the writer's own buffer avoids copying the
	// whole image (the dominant allocation of a checkpoint) a second time.
	w.U32(crc32.Checksum(w.Bytes(), castagnoli))
	return w.Bytes()
}

// loadCheckpoint reads and fully validates one checkpoint file. damaged
// distinguishes a file whose *content* is bad (short, checksum or decode
// failure — quarantine it and fall back) from a read error (permissions,
// I/O) or a version newer than this reader: quarantining on those would
// hide a perfectly good image forever, so such errors must propagate
// instead.
func loadCheckpoint(fs vfs.FS, path string) (g *storage.Graph, st *index.Store, seq, epoch uint64, damaged bool, err error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, nil, 0, 0, false, err
	}
	if len(data) < 4 {
		return nil, nil, 0, 0, true, fmt.Errorf("wal: checkpoint %s too short", path)
	}
	payload := data[:len(data)-4]
	sum := uint32(data[len(data)-4]) | uint32(data[len(data)-3])<<8 |
		uint32(data[len(data)-2])<<16 | uint32(data[len(data)-1])<<24
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, nil, 0, 0, true, fmt.Errorf("wal: checkpoint %s fails its checksum", path)
	}
	r := enc.NewReader(payload)
	if r.U32() != ckptMagic {
		return nil, nil, 0, 0, true, fmt.Errorf("wal: checkpoint %s has wrong magic", path)
	}
	v := r.U8()
	if v > ckptVersion {
		return nil, nil, 0, 0, false, fmt.Errorf("wal: checkpoint %s has version %d, newer than the supported %d", path, v, ckptVersion)
	}
	if v == 0 {
		return nil, nil, 0, 0, true, fmt.Errorf("wal: checkpoint %s has invalid version 0", path)
	}
	seq = r.Uvarint()
	epoch = r.Uvarint()
	g, err = storage.DecodeGraph(r)
	if err != nil {
		return nil, nil, 0, 0, true, fmt.Errorf("wal: checkpoint %s: %w", path, err)
	}
	st, err = index.DecodeStore(r, g, v == 1)
	if err != nil {
		return nil, nil, 0, 0, true, fmt.Errorf("wal: checkpoint %s: %w", path, err)
	}
	if r.Rest() != 0 {
		return nil, nil, 0, 0, true, fmt.Errorf("wal: checkpoint %s has %d trailing bytes", path, r.Rest())
	}
	return g, st, seq, epoch, false, nil
}

// quarantine renames a corrupt checkpoint aside so it is never retried but
// remains available for inspection, and (in fsync mode) makes the rename
// durable so the file cannot reappear under its original name after a
// crash. The error is the caller's to surface — swallowing it would hide
// that the corrupt file will be re-detected on every open.
func quarantine(fs vfs.FS, dir, name string, fsync bool) error {
	if err := fs.Rename(filepath.Join(dir, name), filepath.Join(dir, name+".corrupt")); err != nil {
		return err
	}
	if fsync {
		return fs.SyncDir(dir)
	}
	return nil
}
