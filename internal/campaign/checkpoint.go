package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Checkpoint records durable campaign progress: how many results have been
// emitted, in index order, to the output stream. The JSONL output itself
// is the state — a resume streams its prefix back into the aggregator and
// the CSV, block by block — so the checkpoint stays a few dozen bytes no
// matter the campaign size.
//
// Both files are input to a resume and are validated as such: the
// fingerprint must be this campaign's, Done must not exceed the target
// count, and the JSONL must hold Done newline-terminated records of which
// record i is, byte for byte, what this build renders for some result of
// target i — AppendJSON's canonical form, the target's own identity fields,
// index i. Anything else is refused with the record's index; bytes past
// the acknowledged records are truncated and re-probed.
type Checkpoint struct {
	// Fingerprint ties the checkpoint to one (targets, samples) pair so a
	// checkpoint can never silently resume a different campaign.
	Fingerprint uint64 `json:"fingerprint"`
	// Done is the number of results emitted.
	Done int `json:"done"`
}

// recordFormat is the TargetResult schema generation, folded into the
// fingerprint: the JSONL record is append-only for readers, but a resume
// replays old records as-is and appends new-format ones, which would break
// the resumed-equals-uninterrupted byte-identity contract across versions.
// Bump it whenever TargetResult gains fields; a cross-version resume is
// then refused like any other config change (-force-restart is the escape
// hatch).
const recordFormat = 2

// Fingerprint hashes the campaign's deterministic inputs. The byte stream
// fed to the hash is frozen: old checkpoints must keep verifying, so this
// folds exactly what the original fmt.Fprintf-into-fnv.New64a formulation
// produced — FNV-1a over "format=F\nsamples=S\n" and one
// "profile|impairment|test|seed[|topology][|#scenario]\n" line per target —
// straight into the running hash, with no staging buffer.
func Fingerprint(targets []Target, samples int) uint64 {
	h := fnv64a(fnvOffset64).str("format=").int(recordFormat).str("\nsamples=").int(int64(samples)).byte('\n')
	for i := range targets {
		t := &targets[i]
		h = h.str(t.Profile).byte('|').str(t.Impairment).byte('|').str(t.Test).byte('|').uint(t.Seed)
		// The topology segment is hashed only when present, so target
		// lists without one hash to the exact pre-topology stream and old
		// checkpoints keep verifying.
		if t.Topology != "" {
			h = h.byte('|').str(t.Topology)
		}
		// Likewise the scenario segment; the '#' prefix keeps it disjoint
		// from the topology segment (no topology name starts with '#'), so
		// {topo:"x"} and {scenario:"x"} target lists hash differently.
		if t.Scenario != "" {
			h = h.str("|#").str(t.Scenario)
		}
		h = h.byte('\n')
	}
	return uint64(h)
}

// fnv64a is a running 64-bit FNV-1a hash (hash/fnv's New64a, as a value).
type fnv64a uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func (h fnv64a) byte(c byte) fnv64a { return (h ^ fnv64a(c)) * fnvPrime64 }

func (h fnv64a) str(s string) fnv64a {
	for i := 0; i < len(s); i++ {
		h = (h ^ fnv64a(s[i])) * fnvPrime64
	}
	return h
}

// uint folds v's decimal digits (rendered here: strconv.AppendUint into a
// scratch array measured a third slower over a target list).
func (h fnv64a) uint(v uint64) fnv64a {
	var digits [20]byte
	i := len(digits)
	for {
		i--
		digits[i] = byte('0' + v%10)
		if v /= 10; v == 0 {
			break
		}
	}
	for _, c := range digits[i:] {
		h = h.byte(c)
	}
	return h
}

// int folds v as strconv.AppendInt renders it.
func (h fnv64a) int(v int64) fnv64a {
	if v < 0 {
		return h.byte('-').uint(-uint64(v))
	}
	return h.uint(uint64(v))
}

// Save writes the checkpoint atomically and durably: temp file, fsync,
// rename, fsync of the containing directory. Rename alone only orders the
// replacement against other *writes* — after a host crash, a filesystem
// may surface the new name pointing at an unsynced (empty) file. Syncing
// the temp file before the rename and the directory after it closes both
// holes, so a crash at any instant leaves either the previous checkpoint
// or the complete new one.
func (c Checkpoint) Save(path string) error {
	data, err := json.Marshal(c)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	// Some platforms cannot fsync a directory handle; the rename itself is
	// still atomic there, so degrade silently rather than fail the save.
	if err := dir.Sync(); err != nil {
		return nil
	}
	return nil
}

// LoadCheckpoint reads a checkpoint file.
func LoadCheckpoint(path string) (Checkpoint, error) {
	var c Checkpoint
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("campaign: checkpoint %s: %w", path, err)
	}
	if c.Done < 0 {
		return c, fmt.Errorf("campaign: checkpoint %s: negative done count", path)
	}
	return c, nil
}
