package server

// The cluster.Replica implementation: the follower-side installation
// paths that internal/cluster feeds with replicated leader state. They
// bypass the wire-facing reservation protocol — each mesh is mutated by
// exactly one tail goroutine — but go through the same registry core
// and the same Restore/ApplyVersion machinery as recovery and the
// leader mutation handlers, so a replica's snapshots are
// indistinguishable from the leader's: same versions, same fault sets,
// same route responses.

import (
	"fmt"

	meshroute "repro"
	"repro/internal/cluster"
)

// UpsertMesh implements cluster.Replica: it installs (or atomically
// replaces) a mesh at a complete replicated state — geometry, fault
// set, and the leader's exact snapshot version. The serving counters of
// a replaced entry carry over (a resync is not a restart), and its
// watch streams are terminated via the resynced channel so consumers
// re-subscribe against the new Network.
func (s *Server) UpsertMesh(name string, width, height int, faults []meshroute.Coord, version uint64) error {
	if !meshNameRE.MatchString(name) {
		return fmt.Errorf("server: replica mesh name %q invalid", name)
	}
	if width < 1 || height < 1 || width > s.cfg.MaxNodes/height {
		return fmt.Errorf("server: replica mesh %q dimensions %dx%d invalid (cap %d nodes)", name, width, height, s.cfg.MaxNodes)
	}
	metrics := newCollector()
	if old, ok := s.reg.lookup(name); ok {
		metrics = old.metrics
	}
	e := &meshEntry{
		name:     name,
		metrics:  metrics,
		deleted:  make(chan struct{}),
		resynced: make(chan struct{}),
	}
	var err error
	e.net, err = meshroute.Restore(width, height, faults, version, s.engineOptions(e))
	if err != nil {
		return fmt.Errorf("server: replica mesh %q restore v%d: %w", name, version, err)
	}
	displaced, err := s.reg.replace(e)
	if err != nil {
		return fmt.Errorf("server: replica mesh %q: %w", name, err)
	}
	if displaced != nil && displaced.resynced != nil {
		close(displaced.resynced)
	}
	return nil
}

// ApplyDelta implements cluster.Replica: it applies one replicated
// watch event so the mesh's next published snapshot version is exactly
// version. Versions at or below the replica's current one are
// duplicates of replayed history (nil); a version it cannot reach by
// one commit — or a delta that publishes the wrong version — fails with
// cluster.ErrOutOfSync, which the follower heals by snapshot refetch.
func (s *Server) ApplyDelta(name string, version uint64, adds, repairs []meshroute.Coord) error {
	e, ok := s.reg.lookup(name)
	if !ok {
		return fmt.Errorf("server: replica mesh %q not installed: %w", name, cluster.ErrOutOfSync)
	}
	cur := e.net.Stats().SnapshotVersion
	if version <= cur {
		return nil
	}
	if version != cur+1 {
		return fmt.Errorf("server: replica mesh %q at v%d cannot apply v%d: %w", name, cur, version, cluster.ErrOutOfSync)
	}
	got, err := e.net.ApplyVersion(func(tx *meshroute.Tx) error {
		for _, c := range adds {
			if err := tx.AddFault(c); err != nil {
				return err
			}
		}
		for _, c := range repairs {
			if err := tx.RepairFault(c); err != nil {
				return err
			}
		}
		// The leader publishes a version even for an empty or
		// no-op delta (e.g. an inject_random that regenerated an
		// identical set); mirror it so versions stay in lockstep.
		tx.Touch()
		return nil
	})
	if err != nil {
		return fmt.Errorf("server: replica mesh %q delta v%d: %w", name, version, err)
	}
	if got != version {
		return fmt.Errorf("server: replica mesh %q published v%d applying v%d: %w", name, got, version, cluster.ErrOutOfSync)
	}
	return nil
}

// MeshVersion implements cluster.Replica.
func (s *Server) MeshVersion(name string) (uint64, bool) {
	e, ok := s.reg.lookup(name)
	if !ok {
		return 0, false
	}
	return e.net.Stats().SnapshotVersion, true
}

// DropMesh implements cluster.Replica: it unregisters a mesh the
// leader deleted, terminating its watch streams. Unknown names are a
// no-op (drop after a failed install, or a double drop).
func (s *Server) DropMesh(name string) {
	if e, ok := s.reg.remove(name, nil); ok {
		close(e.deleted)
	}
}
