package httpapi

import (
	"net/http"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/cluster"
)

// WithCluster joins the server to a cluster node: it mounts the
// node-to-node peer routes (cache fill and snapshot shipping) behind
// the same instrument/protect middleware as the public work routes,
// enables ownership-based forwarding of synthesis requests, and adds
// the cluster block to /healthz. That block doubles as the heartbeat
// payload peers probe — its leaving flag is how a draining node
// de-registers from sibling rings.
func WithCluster(n *cluster.Node) Option {
	return func(s *Server) {
		if n == nil {
			return
		}
		s.cluster = n
		peer := func(path string, h http.HandlerFunc) {
			s.mux.HandleFunc(path, s.instrument(path, s.protect(h)))
		}
		peer(cluster.FillPath, requireGET(s.handlePeerFill))
		peer(cluster.SnapshotPath, requireGET(s.handlePeerSnapshot))
	}
}

// handlePeerFill serves one cached implementation by cache key as a
// one-entry cachestore stream: 200 with the entry on a hit, 204 on a
// miss. The lookup is a non-blocking peek — a sibling's fill must
// never wait behind this node's in-flight synthesis of the same key,
// and must not distort local hit-rate accounting.
func (s *Server) handlePeerFill(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, apierr.CodeBadSpec, "missing key parameter")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	ok, err := cluster.WriteFill(s.eng, w, key)
	if err != nil {
		// The stream already started; the peer's cachestore.Read fails
		// structurally and treats it as a miss. Just log.
		s.logger.Warn("peer fill stream failed", "err", err)
		return
	}
	if !ok {
		w.WriteHeader(http.StatusNoContent)
	}
}

// handlePeerSnapshot streams the whole cache as a versioned snapshot,
// the same format the disk persistence writes. A receiver whose
// transfer is cut mid-stream fails the snapshot's header-count
// validation and cold-starts clean rather than half-loaded.
func (s *Server) handlePeerSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := s.eng.WriteCacheSnapshot(w); err != nil {
		s.logger.Warn("peer snapshot stream failed", "err", err)
	}
}
