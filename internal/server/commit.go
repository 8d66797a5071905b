package server

import (
	"time"

	"reactivespec/internal/obs"
)

// commitStamps reports one commit: the batch's first WAL sequence (0
// without a log), the events applied, and the stage boundaries. start..end
// covers the whole call, lock waits included.
type commitStamps struct {
	firstSeq                               uint64
	events                                 int
	start, wal, fsync, apply, applied, end time.Time
}

// commit logs, then applies, one batch of validated frames into p; frames
// span payload, and those with errMsg set are skipped. POST batches, stream
// frames and replicated records all end here, so this is the one place that
// knows the log-before-apply order. Under applyMu (read, which keeps
// snapshot capture out of the gap) and p's ingest lock (so a program's WAL
// order is its apply order), each frame is appended to the WAL under p.key
// with its sequence noted against traceID — the shipper re-attaches traces
// from that side table — then one Commit covers the batch, and only then
// does each frame apply, appending its decisions to dst and recording its
// [dstart, dend) span of them.
//
// On a WAL failure nothing is applied: a batch that cannot be logged must
// not train the live table, or recovery would diverge from the state it
// acknowledged. Frames appended before the failure may survive in the log;
// replaying them is safe, since the sender saw an error.
func (s *Server) commit(p *partition, payload []byte, frames []frameSpan, traceID uint64, dst []byte) ([]byte, commitStamps, error) {
	c := commitStamps{start: time.Now()}
	s.applyMu.RLock()
	p.ingest.Lock()
	c.wal = time.Now()
	c.fsync = c.wal
	var err error
	if wlog := s.cfg.WAL; wlog != nil {
		logged := false
		for _, f := range frames {
			if f.errMsg != "" {
				continue
			}
			var seq uint64
			if seq, err = wlog.AppendPayload(p.key, payload[f.pstart:f.pend]); err != nil {
				break
			}
			if !logged {
				c.firstSeq, logged = seq, true
			}
			s.cfg.Trace.NoteSeq(seq, traceID)
		}
		c.fsync = time.Now()
		if err == nil {
			err = wlog.Commit()
		}
	}
	c.apply = time.Now()
	for i := range frames {
		if f := &frames[i]; err == nil && f.errMsg == "" {
			f.dstart = len(dst)
			dst = p.applyFrame(payload[f.pstart:f.pend], dst)
			f.dend = len(dst)
			c.events += f.events
		}
	}
	c.applied = time.Now()
	p.ingest.Unlock()
	s.applyMu.RUnlock()
	c.end = time.Now()
	if err != nil {
		s.ins.walAppendErrors.Inc()
	}
	return dst, c, err
}

// recordBatch writes a traced batch's span tree, labelled with the
// partition key: the batch root over [start, end) and its contiguous
// children decode, commit's wal_append, fsync and apply, then respond from
// respondStart. Durations are wall-clock differences of the readings the
// starts come from, so every child lies inside the root exactly.
func (s *Server) recordBatch(traceID uint64, key string, start, decodeStart, decodeEnd time.Time,
	c commitStamps, respondStart, end time.Time) {
	if traceID == 0 {
		return
	}
	tr := s.cfg.Trace
	root := tr.SpanID()
	tr.Record(obs.Span{Trace: traceID, Span: root, Stage: "batch", Program: key,
		Events: c.events, Seq: c.firstSeq, Start: start.UnixNano(), Dur: end.UnixNano() - start.UnixNano()})
	stage := func(name string, events int, seq uint64, from, to time.Time) {
		tr.RecordStage(traceID, root, name, key, events, seq, from, time.Duration(to.UnixNano()-from.UnixNano()))
	}
	stage("decode", c.events, 0, decodeStart, decodeEnd)
	stage("wal_append", c.events, c.firstSeq, c.wal, c.fsync)
	stage("fsync", 0, c.firstSeq, c.fsync, c.apply)
	stage("apply", c.events, 0, c.apply, c.applied)
	stage("respond", 0, 0, respondStart, end)
}
