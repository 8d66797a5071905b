package server

import (
	"reactivespec/internal/core"
	"reactivespec/internal/obs"
	"reactivespec/internal/wal"
)

// TableMetrics are the whole table's counters (Table.Metrics), derived at
// read time from the units' own lifetime counters and states. They describe
// the table's state, which snapshots and the WAL restore, so a restarted
// daemon reports what it reported before it stopped.
type TableMetrics struct {
	// Stats sums every unit's lifetime counters: events, instructions,
	// verdicts, selections, evictions and retirals.
	core.Stats
	// Units counts resident units by classification state (index
	// core.State); Units[core.Retired] equals Stats.Retirals.
	Units [4]uint64
	// Entries is the number of resident (program, unit) entries.
	Entries uint64
}

// batchLatencyQuantiles are the quantiles /metrics exposes for every
// latency summary.
var batchLatencyQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// serverInstruments are the server's direct registry instruments: cheap
// atomic counters on the ingest path plus the latency and batch-size
// summaries. The table families are derived from the units at scrape time
// instead (registerTableCollector), so the ingest hot path counts nothing
// for them.
type serverInstruments struct {
	batches          *obs.Counter
	rejectedFrames   *obs.Counter
	truncatedBatches *obs.Counter
	responseErrors   *obs.Counter
	snapshots        *obs.Counter
	streamSessions   *obs.Counter
	streamFrames     *obs.Counter

	walAppendErrors    *obs.Counter
	walReplayedRecords *obs.Counter
	walReplayedEvents  *obs.Counter

	replicatedRecords *obs.Counter
	replicatedEvents  *obs.Counter
	promotions        *obs.Counter

	batchLat    *obs.Histogram
	decodeLat   *obs.Histogram
	applyLat    *obs.Histogram
	respondLat  *obs.Histogram
	batchEvents *obs.Histogram
	walFsyncLat *obs.Histogram
}

// newServerInstruments registers the server's direct metrics, all under the
// uniform reactived_ prefix with # HELP/# TYPE metadata supplied by the
// registry's exposition writer.
func newServerInstruments(reg *obs.Registry) serverInstruments {
	lat := func(name, help string) *obs.Histogram {
		return reg.NewHistogram(name, help, 1e-6, 60, 30, batchLatencyQuantiles...)
	}
	return serverInstruments{
		batches:        reg.NewCounter("reactived_batches_total", "Ingest batches processed."),
		rejectedFrames: reg.NewCounter("reactived_frames_rejected_total", "Corrupt frames rejected per-batch."),
		truncatedBatches: reg.NewCounter("reactived_batches_truncated_total",
			"Ingest batches whose framing was lost mid-body (decoded prefix applied)."),
		responseErrors: reg.NewCounter("reactived_ingest_response_errors_total",
			"Ingest responses that failed to write back to the client."),
		snapshots: reg.NewCounter("reactived_snapshots_total", "Snapshots written."),
		streamSessions: reg.NewCounter("reactived_stream_sessions_total",
			"Streaming ingest sessions accepted."),
		streamFrames: reg.NewCounter("reactived_stream_frames_total",
			"Event frames received over streaming sessions."),
		walAppendErrors: reg.NewCounter("reactived_wal_append_errors_total",
			"Ingest batches rejected because the write-ahead log could not append them."),
		walReplayedRecords: reg.NewCounter("reactived_wal_replayed_records_total",
			"WAL records replayed during recovery."),
		walReplayedEvents: reg.NewCounter("reactived_wal_replayed_events_total",
			"Events replayed from the WAL during recovery."),
		replicatedRecords: reg.NewCounter("reactived_replication_applied_records_total",
			"Records applied from a primary's shipped WAL (replica mode)."),
		replicatedEvents: reg.NewCounter("reactived_replication_applied_events_total",
			"Events applied from a primary's shipped WAL (replica mode)."),
		promotions: reg.NewCounter("reactived_replication_promotions_total",
			"Replica-to-primary promotions."),
		batchLat:   lat("reactived_batch_latency_seconds", "Ingest batch handling latency."),
		decodeLat:  lat("reactived_ingest_decode_seconds", "Per-batch time decoding trace frames."),
		applyLat:   lat("reactived_ingest_apply_seconds", "Per-batch time applying events to the controller table."),
		respondLat: lat("reactived_ingest_respond_seconds", "Per-batch time encoding and writing the decision response."),
		batchEvents: reg.NewHistogram("reactived_ingest_batch_events",
			"Events per ingest batch.", 1, 1e8, 10, batchLatencyQuantiles...),
		walFsyncLat: lat("reactived_wal_fsync_seconds", "WAL fsync latency."),
	}
}

// registerWALCollector exposes the write-ahead log's internal counters —
// which live behind the log's own mutex, not in registry instruments — as
// computed families.
func registerWALCollector(reg *obs.Registry, l *wal.Log) {
	reg.RegisterCollector("reactived_wal", func(e *obs.Emitter) {
		st := l.Stats()
		e.Family("reactived_wal_appended_records_total", "counter", "Records appended to the WAL.")
		e.SampleUint(st.AppendedRecords)
		e.Family("reactived_wal_appended_bytes_total", "counter", "Bytes appended to the WAL.")
		e.SampleUint(st.AppendedBytes)
		e.Family("reactived_wal_fsyncs_total", "counter", "WAL segment fsyncs.")
		e.SampleUint(st.Fsyncs)
		e.Family("reactived_wal_segments", "gauge", "On-disk WAL segment files.")
		e.SampleUint(uint64(st.Segments))
		e.Family("reactived_wal_active_segment_bytes", "gauge", "Size of the WAL segment being appended to.")
		e.SampleUint(uint64(st.ActiveSegmentBytes))
		e.Family("reactived_wal_next_seq", "gauge", "Sequence number the next WAL record will get.")
		e.SampleUint(st.NextSeq)
		e.Family("reactived_wal_oldest_seq", "gauge", "Oldest retained WAL sequence number.")
		e.SampleUint(st.OldestSeq)
	})
}

// registerTableCollector exposes the table's whole-table families, derived
// from the units' page entries at every scrape (Table.Metrics). They count
// over the table's whole restored state, so they read the same before and
// after a restart.
func registerTableCollector(reg *obs.Registry, t *Table) {
	reg.RegisterCollector("reactived_table", func(e *obs.Emitter) {
		total := t.Metrics()
		e.Family("reactived_table_events_total", "counter", "Events applied across the table.")
		e.SampleUint(total.Events)
		e.Family("reactived_table_misspec_rate", "gauge", "Misspeculations per event across the table.")
		e.Sample(total.MisspecFrac())
		e.Family("reactived_table_units", "gauge",
			"Resident units in each classification state across the table.")
		for st, n := range total.Units {
			e.SampleUint(n, "state", core.State(st).String())
		}
		e.Family("reactived_table_selections_total", "counter",
			"Unit selections (entries into the biased state) across the table.")
		e.SampleUint(total.Selections)
		e.Family("reactived_table_evictions_total", "counter",
			"Unit evictions (biased to monitor) across the table.")
		e.SampleUint(total.Evictions)
		e.Family("reactived_table_entries", "gauge", "Resident (program, unit) entries across the table.")
		e.SampleUint(total.Entries)
	})
}
