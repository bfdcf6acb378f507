package serve

// Fleet worker mode: when Config.RouterURL is set the server announces
// itself to the ipim-router and keeps a heartbeat going. The beat is a
// push of the worker's own health verdict — the same one /readyz
// serves — so the router's ring tracks readiness without probing every
// worker on every request; the router's TTL sweep (and its mark-down
// on proxy errors) is the backstop for a worker that dies between
// beats. State names are the fleet registry's vocabulary: "ready"
// joins the ring, everything else leaves it.

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// heartbeater runs the registration loop of fleet worker mode.
type heartbeater struct {
	stop chan struct{}
	done chan struct{}
}

// startHeartbeat validates the fleet flags and launches the beat loop.
func (s *Server) startHeartbeat() error {
	if s.cfg.AdvertiseAddr == "" {
		return fmt.Errorf("serve: fleet worker mode needs an advertise address (RouterURL is set, AdvertiseAddr is empty)")
	}
	for _, raw := range []string{s.cfg.RouterURL, s.cfg.AdvertiseAddr} {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return fmt.Errorf("serve: fleet worker mode: %q is not an absolute URL", raw)
		}
	}
	hb := &heartbeater{stop: make(chan struct{}), done: make(chan struct{})}
	s.heartbeat = hb
	go s.heartbeatLoop(hb)
	return nil
}

// stopAndWait sends the final "draining" beat and joins the loop. Safe
// on a nil receiver (standalone mode) and safe to call twice.
func (hb *heartbeater) stopAndWait() {
	if hb == nil {
		return
	}
	select {
	case <-hb.stop:
	default:
		close(hb.stop)
	}
	<-hb.done
}

// heartbeatLoop beats until stopped, then reports "draining" so the
// router rehashes this worker's keys before the pool drains.
func (s *Server) heartbeatLoop(hb *heartbeater) {
	defer close(hb.done)
	client := &http.Client{Timeout: 2 * s.cfg.HeartbeatInterval}
	beat := func(state string) {
		u := fmt.Sprintf("%s/fleet/register?addr=%s&state=%s",
			s.cfg.RouterURL, url.QueryEscape(s.cfg.AdvertiseAddr), url.QueryEscape(state))
		resp, err := client.Post(u, "text/plain", nil)
		if err != nil {
			s.cfg.Logger.Printf("fleet: heartbeat to %s failed: %v", s.cfg.RouterURL, err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	beat(s.health().state)
	tick := time.NewTicker(s.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-hb.stop:
			beat("draining")
			return
		case <-tick.C:
			beat(s.health().state)
		}
	}
}
