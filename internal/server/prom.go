package server

import (
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// Metric names and help strings of GET /metrics, meshd's one stats
// surface, in Prometheus text-exposition form. The name table is
// documented in ARCHITECTURE.md ("Telemetry") and asserted present by
// make metrics-smoke, so additions go in all three places.
const (
	mUptime = "meshd_uptime_seconds"

	mRoutes       = "meshd_routes_total"
	mDelivered    = "meshd_routes_delivered_total"
	mHops         = "meshd_route_hops_total"
	mWalkLatency  = "meshd_walk_latency_seconds"
	mWireErrors   = "meshd_wire_errors_total"
	mOracleHits   = "meshd_oracle_hits_total"
	mOracleMisses = "meshd_oracle_misses_total"
	mRebuildDelta = "meshd_rebuild_delta_total"
	mRebuildFull  = "meshd_rebuild_full_total"
	mRebuildCells = "meshd_rebuild_cells_total"
	mFaults       = "meshd_faults"
	mSnapVersion  = "meshd_snapshot_version"
	mWatchers     = "meshd_watchers"
	mWatchDropped = "meshd_watch_events_dropped_total"

	mJournalRecords     = "meshd_journal_records_total"
	mJournalCheckpoints = "meshd_journal_checkpoints_total"
	mJournalErrors      = "meshd_journal_errors_total"
	mJournalVersion     = "meshd_journal_version"
	mJournalWAL         = "meshd_journal_wal_records"

	mAdmInflight = "meshd_admission_inflight"
	mAdmQueued   = "meshd_admission_queued"
	mAdmAdmitted = "meshd_admission_admitted_total"
	mAdmRejected = "meshd_admission_rejected_total"
	mAdmTenantQ  = "meshd_admission_tenant_queued"

	mReplApplied    = "meshd_replication_applied_version"
	mReplLeader     = "meshd_replication_leader_version"
	mReplLag        = "meshd_replication_lag"
	mReplLagSeconds = "meshd_replication_lag_seconds"
	mReplReconnects = "meshd_replication_reconnects_total"
	mReplGapsHealed = "meshd_replication_gaps_healed_total"
)

// MetricNames lists every metric family /metrics can emit —
// the contract make metrics-smoke asserts against a live scrape.
func MetricNames() []string {
	return []string{
		mUptime,
		mRoutes, mDelivered, mHops, mWalkLatency, mWireErrors,
		mOracleHits, mOracleMisses,
		mRebuildDelta, mRebuildFull, mRebuildCells,
		mFaults, mSnapVersion, mWatchers, mWatchDropped,
		mJournalRecords, mJournalCheckpoints, mJournalErrors,
		mJournalVersion, mJournalWAL,
		mAdmInflight, mAdmQueued, mAdmAdmitted, mAdmRejected, mAdmTenantQ,
		mReplApplied, mReplLeader, mReplLag, mReplLagSeconds,
		mReplReconnects, mReplGapsHealed,
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, s.MetricsText())
}

// MetricsText renders the full Prometheus exposition: one scrape of
// every registered mesh's serving counters plus the global admission and
// replication state. Meshes, wire codes, and tenants render in sorted
// order, so two scrapes of identical state are byte-identical (no
// timestamps are emitted — scrape time is the timestamp).
func (s *Server) MetricsText() string {
	e := telemetry.NewExposition()
	e.Gauge(mUptime, "Seconds since the server started.", nil,
		time.Since(s.start).Seconds())

	entries := s.reg.entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	for _, me := range entries {
		s.meshMetrics(e, me)
	}

	if s.admission != nil {
		st := s.admission.Stats()
		e.Gauge(mAdmInflight, "Requests currently holding an admission slot.", nil, float64(st.Inflight))
		e.Gauge(mAdmQueued, "Requests currently queued for an admission slot.", nil, float64(st.Queued))
		// The unlabeled global tallies include evicted tenants' history;
		// per-tenant series cover the live tenants.
		e.Counter(mAdmAdmitted, "Requests admitted, by tenant.", nil, st.Admitted)
		e.Counter(mAdmRejected, "Requests rejected with RESOURCE_EXHAUSTED, by tenant.", nil, st.Rejected)
		for _, tenant := range telemetry.SortedKeys(st.Tenants) {
			ts := st.Tenants[tenant]
			labels := telemetry.Labels{telemetry.L("tenant", tenant)}
			e.Counter(mAdmAdmitted, "Requests admitted, by tenant.", labels, ts.Admitted)
			e.Counter(mAdmRejected, "Requests rejected with RESOURCE_EXHAUSTED, by tenant.", labels, ts.Rejected)
			e.Gauge(mAdmTenantQ, "Requests queued, by tenant.", labels, float64(ts.Queued))
		}
	}

	s.replMu.Lock()
	stats := s.replStats
	s.replMu.Unlock()
	if stats != nil {
		now := time.Now()
		byMesh := stats()
		for _, name := range telemetry.SortedKeys(byMesh) {
			ts := byMesh[name]
			labels := telemetry.Labels{telemetry.L("mesh", name)}
			e.Gauge(mReplApplied, "Last leader snapshot version applied locally.", labels, float64(ts.AppliedVersion))
			e.Gauge(mReplLeader, "Highest snapshot version the leader has announced.", labels, float64(ts.LeaderVersion))
			var lag uint64
			if ts.LeaderVersion > ts.AppliedVersion {
				lag = ts.LeaderVersion - ts.AppliedVersion
			}
			e.Gauge(mReplLag, "Versions behind the leader (leader - applied).", labels, float64(lag))
			var lagAge float64
			if !ts.BehindSince.IsZero() {
				lagAge = now.Sub(ts.BehindSince).Seconds()
			}
			e.Gauge(mReplLagSeconds, "Seconds this mesh has been behind the leader (age of the oldest unapplied announcement).", labels, lagAge)
			e.Counter(mReplReconnects, "Watch-stream reconnects.", labels, ts.Reconnects)
			e.Counter(mReplGapsHealed, "Full snapshot refetches forced by gaps or out-of-sync deltas.", labels, ts.GapsHealed)
		}
	}
	return e.String()
}

// meshMetrics emits one mesh's families. Wire-code series render for
// every code in the taxonomy (zero included): a scrape's series set
// must not depend on which errors have happened yet, or rate() windows
// break on first occurrence.
func (s *Server) meshMetrics(e *telemetry.Exposition, me *meshEntry) {
	labels := telemetry.Labels{telemetry.L("mesh", me.name)}
	c := me.metrics
	e.Counter(mRoutes, "Walks served (every batch item counts).", labels, c.routes.Value())
	e.Counter(mDelivered, "Walks that reached their destination.", labels, c.delivered.Value())
	e.Counter(mHops, "Total hops walked by delivered walks.", labels, c.hops.Value())
	e.Histogram(mWalkLatency, "Wall-clock walk latency.", labels, c.walk)

	codes := make([]string, 0, len(c.httpErrors))
	for code := range c.httpErrors {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		e.Counter(mWireErrors, "Error outcomes by wire code (non-2xx responses plus in-stream error records).",
			telemetry.Labels{telemetry.L("mesh", me.name), telemetry.L("code", code)},
			c.httpErrors[code].Value())
	}

	rs := me.net.Engine().RebuildStats()
	e.Counter(mOracleHits, "Distance-oracle cache hits.", labels, rs.OracleHits)
	e.Counter(mOracleMisses, "Distance-oracle cache misses (BFS recomputes).", labels, rs.OracleMisses)
	e.Counter(mRebuildDelta, "Snapshot publications served by the delta-scoped rebuild path.", labels, rs.DeltaBuilds)
	e.Counter(mRebuildFull, "Snapshot publications that fell back to a full precompute.", labels, rs.FullBuilds)
	e.Counter(mRebuildCells, "Labeling cells examined by delta-scoped rebuilds.", labels, rs.RebuildCells)

	st := me.net.Stats()
	e.Gauge(mFaults, "Faulty nodes in the published configuration.", labels, float64(st.PublishedFaults))
	e.Gauge(mSnapVersion, "Published snapshot version.", labels, float64(st.SnapshotVersion))
	e.Gauge(mWatchers, "Live watch subscriptions.", labels, float64(st.Watchers))
	e.Counter(mWatchDropped, "Fault events dropped on slow watchers.", labels, st.WatchEventsDropped)

	if me.journal != nil {
		js := me.journal.Stats()
		e.Counter(mJournalRecords, "WAL records appended since the journal opened.", labels, js.Records)
		e.Counter(mJournalCheckpoints, "Checkpoint compactions since the journal opened.", labels, js.Checkpoints)
		e.Counter(mJournalErrors, "Journal append/compaction/flush failures.", labels, js.Errors)
		e.Gauge(mJournalVersion, "Last journaled snapshot version.", labels, float64(js.Version))
		e.Gauge(mJournalWAL, "WAL records since the last checkpoint (the ?from= resume window).", labels, float64(js.SinceCheckpoint))
	}
}
