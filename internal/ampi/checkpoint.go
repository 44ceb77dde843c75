package ampi

// Checkpointing is migration to disk (paper §3). An event rank's whole
// state is its continuation record (shard.go) — §3.2's "few application
// data structures and the name of the next event to run" — so a
// checkpoint is every rank's record, taken at a full gate where nothing
// is in flight, behind a header that names what the records mean:
//
//	magic       imageMagic
//	length      uint64, little-endian: the bytes that follow
//	size        the job's rank count
//	program     numberSites' numbering (each site's name, kind and root),
//	            depth and the shape of the whole tree
//	options     those that enter virtual time, and the network's latency
//	records     one length-prefixed record per rank, in rank order
//
// The length makes an image self-delimiting, so images can follow one
// another on one stream. A record names no PE worth keeping (it says 0):
// Restore places every rank with placePE on its own machine, and
// installs the records, all parked at the gate, through the same
// validating installLocked a move uses. The gate's resume then runs
// them on. A record carries virtual time and the senders of buffered
// messages by rank, so nothing in it depends on the machine it was
// taken on.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"

	"migflow/internal/comm"
	"migflow/internal/core"
	"migflow/internal/pup"
)

// imageMagic opens every checkpoint image.
const imageMagic = "migflow ampi checkpoint 1\n"

// imageRecordMin is the fewest bytes a record takes in an image: its
// length prefix and its rank.
const imageRecordMin = 4 + 8

// identity describes what an image must share with the job restoring
// it: the program, by its numbered collective sites, depth and tree
// shape (so a statement added or removed anywhere, before or after the
// gate, is another program), and the options and latency model that
// virtual time depends on.
func (j *Job) identity() (prog, opts string) {
	var b strings.Builder
	fmt.Fprintf(&b, "depth %d", j.depth)
	for i, s := range j.sites {
		fmt.Fprintf(&b, "; site %d %s kind %d root %d", i, s.name, s.kind, s.root)
	}
	fmt.Fprintf(&b, "; shape %016x", j.shape)
	o := j.opts
	return b.String(), fmt.Sprintf("MsgOverheadNs %v, Collectives %d, TreeArity %d, Topo %+v, BlockPlacement %v, latency %+v",
		o.MsgOverheadNs, o.Collectives, o.TreeArity, o.Topo, o.BlockPlacement, j.m.Network().Latency())
}

// checkpoint writes the job's image to w. Every rank is parked at the
// gate and the machine is quiescent; the ranks stay as they are.
func (j *Job) checkpoint(w io.Writer) error {
	if w == nil {
		return errors.New("nil writer")
	}
	body, rec := pup.NewGrowPacker(), pup.NewGrowPacker()
	size := j.size
	prog, opts := j.identity()
	if err := pupFields(body, &size, &prog, &opts); err != nil {
		return err
	}
	ranks := j.store()
	for r := range ranks {
		s := &ranks[r]
		rec.Reset()
		s.mu.Lock()
		_, err := j.ev.packLocked(rec, s, 0, 0)
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("rank %d %w", r, err)
		}
		b := rec.PackedBytes()
		if err := body.Bytes(&b); err != nil {
			return err
		}
	}
	head := binary.LittleEndian.AppendUint64([]byte(imageMagic), uint64(len(body.PackedBytes())))
	if _, err := w.Write(head); err != nil {
		return err
	}
	_, err := w.Write(body.PackedBytes())
	return err
}

// Restore builds the event job a Checkpoint wrote to r, on machine m
// (any PE count; not a sharded one), running prog under opts — the
// program and the virtual-time options the image was taken with, which
// it checks. Whatever opts.Mode says, the job is an event job. Each
// rank is placed with the job's placement and parked at the gate it was
// checkpointed at; Run or RunParallel resumes it there and finishes the
// job. A foreign, truncated or mismatched image is a named error, and
// r is read exactly to the image's end.
func Restore(m *core.Machine, prog Proc, opts Options, r io.Reader) (*Job, error) {
	if m.Sharded() {
		return nil, errors.New("ampi: Restore: a sharded machine cannot restore a checkpoint yet")
	}
	head := make([]byte, len(imageMagic)+8)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("ampi: Restore: reading the image header: %w", err)
	}
	if string(head[:len(imageMagic)]) != imageMagic {
		return nil, errors.New("ampi: Restore: not a checkpoint image")
	}
	n := binary.LittleEndian.Uint64(head[len(imageMagic):])
	data, err := io.ReadAll(io.LimitReader(r, int64(min(n, 1<<62))))
	if err != nil {
		return nil, fmt.Errorf("ampi: Restore: reading the image: %w", err)
	}
	if uint64(len(data)) != n {
		return nil, fmt.Errorf("ampi: Restore: image truncated: %d of its %d bytes", len(data), n)
	}
	p := pup.NewUnpacker(data)
	var size int
	var progID, optsID string
	if err := pupFields(p, &size, &progID, &optsID); err != nil {
		return nil, fmt.Errorf("ampi: Restore: image header: %w", err)
	}
	if size < 1 || size > p.Remaining()/imageRecordMin {
		return nil, fmt.Errorf("ampi: Restore: image claims %d ranks with %d bytes of records", size, p.Remaining())
	}
	opts.Mode = ModeEvent
	j, err := NewProgram(m, size, opts, prog)
	if err != nil {
		return nil, fmt.Errorf("ampi: Restore: %w", err)
	}
	if err := j.install(p, progID, optsID); err != nil {
		e := j.ev
		m.DeregisterEntityRange(e.base, e.base+comm.EntityID(size-1))
		m.Network().DeregisterRange(e.base)
		return nil, fmt.Errorf("ampi: Restore: %w", err)
	}
	return j, nil
}

// install checks an image's program and options against the job's and
// installs its records into the job's empty slots.
func (j *Job) install(p *pup.PUPer, progID, optsID string) error {
	prog, opts := j.identity()
	switch {
	case progID != prog:
		return fmt.Errorf("image is of another program (%s), not this one (%s)", progID, prog)
	case optsID != opts:
		return fmt.Errorf("image was taken with %s, not %s", optsID, opts)
	}
	ranks := j.store()
	for r := range ranks {
		var rec []byte
		if err := p.Bytes(&rec); err != nil {
			return fmt.Errorf("image ends at record %d of %d: %w", r, j.size, err)
		}
		s := &ranks[r]
		s.mu.Lock()
		_, err := j.ev.installLocked(s, rec)
		if err == nil && !s.pc.atGate() {
			err = errors.New("it is not parked at a gate")
		}
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	if p.Remaining() != 0 {
		return fmt.Errorf("image carries %d bytes past its %d records", p.Remaining(), j.size)
	}
	return nil
}
