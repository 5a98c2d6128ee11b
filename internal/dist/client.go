package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/sim"
)

// Client runs sampling requests on a remote coordinator with the same
// Run(ctx, *Request) → *Report shape as sim.Session — callers swap
// local for distributed execution with one constructor. Progress
// events stream back to Request.Progress; the final report's
// measurement half is bit-identical to the local engine's.
//
// A run is created with POST /v1/runs (which assigns it a stable ID)
// and followed over GET /v1/runs/{id}/stream. When the stream breaks —
// a dropped connection, or the coordinator dying and restarting — the
// client re-attaches from its last received event index instead of
// failing or silently redoing the work locally: the coordinator owns
// the run (journaled on disk when it has a store) and the re-attached
// stream resumes exactly where the old one stopped. Each reconnect
// surfaces as an EventReattach progress event.
type Client struct {
	url    string
	client *http.Client

	// Fallback, when non-nil, is a local session the client degrades to
	// when the coordinator stays unreachable (or at capacity) after the
	// connect retries: the run completes in-process — bit-identical by
	// construction — after an EventFallback progress event carrying the
	// coordinator error. Fallback applies only before the run is
	// created; once the coordinator accepted the run it may keep
	// executing, so the client re-attaches instead (a silent local redo
	// could double the work).
	Fallback *sim.Session
	// Retries, RetryBase and RetryMax shape the capped
	// exponential-backoff retry on the initial run request (zero values
	// select the defaults: 4 attempts, 50ms base, 2s cap). Each retried
	// attempt surfaces as an EventRetry progress event.
	Retries             int
	RetryBase, RetryMax time.Duration
	// ReattachAttempts bounds consecutive failed attempts to re-attach
	// to a created run's stream (default 8; the counter resets whenever
	// an attached stream delivers an event). The wait between attempts
	// follows the retry backoff, so a coordinator restart has several
	// seconds to come back before the client gives up.
	ReattachAttempts int
}

// NewClient builds a client for the coordinator at base URL url.
func NewClient(url string) *Client {
	return &Client{url: url, client: &http.Client{}}
}

// rejectedError marks a deterministic coordinator answer (a 400-class
// rejection, or a run the coordinator no longer knows): retrying
// cannot change it, and neither can falling back — the local session
// would fail or diverge the same way.
type rejectedError struct{ err error }

func (e *rejectedError) Error() string { return e.err.Error() }
func (e *rejectedError) Unwrap() error { return e.err }

// Run executes one request on the coordinator. Requests the service
// does not shard (experiments, procedures, multi-offset runs, runs
// without functional warming) fail before touching the network. Cancellation sends
// the coordinator a best-effort DELETE so it stops the shards.
func (c *Client) Run(ctx context.Context, req *sim.Request) (*sim.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	wr, err := wireFromRequest(req)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(wr)
	if err != nil {
		return nil, err
	}
	created, connErr := c.createRun(ctx, body, req.Progress)
	if connErr != nil {
		var rej *rejectedError
		rejected := errors.As(connErr, &rej)
		if c.Fallback != nil && !rejected && ctx.Err() == nil {
			if req.Progress != nil {
				req.Progress(sim.Progress{Kind: sim.EventFallback, Stage: "sample",
					Note: connErr.Error()})
			}
			return c.Fallback.Run(ctx, req)
		}
		if rejected {
			return nil, rej.err
		}
		return nil, connErr
	}
	rep, err := c.followRun(ctx, created, req.Progress)
	if err != nil && ctx.Err() != nil {
		// The caller cancelled: tell the coordinator to stop the shards.
		c.cancelRun(created.ID)
		return nil, ctx.Err()
	}
	return rep, err
}

// createRun POSTs the request until the coordinator accepts it,
// retrying transient failures with backoff.
func (c *Client) createRun(ctx context.Context, body []byte, progress sim.ProgressFunc) (runCreated, error) {
	policy := retryPolicy{Attempts: c.Retries, Base: c.RetryBase, Max: c.RetryMax}
	var created runCreated
	err := retry(ctx, policy, func(attempt int, aerr error) {
		if progress != nil {
			progress(sim.Progress{Kind: sim.EventRetry, Stage: "sample",
				Attempt: attempt, Note: "coordinator run: " + aerr.Error()})
		}
	}, func() error {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/v1/runs", bytes.NewReader(body))
		if err != nil {
			return permanent(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		r, err := c.client.Do(hreq)
		if err != nil {
			return err
		}
		defer r.Body.Close()
		switch r.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			if err := json.NewDecoder(r.Body).Decode(&created); err != nil || created.ID == "" {
				return fmt.Errorf("dist: coordinator %s: bad run-created reply", c.url)
			}
			return nil
		case http.StatusTooManyRequests:
			return fmt.Errorf("%w (coordinator %s)", ErrBusy, c.url)
		default:
			msg, _ := io.ReadAll(io.LimitReader(r.Body, 4096)) //simlint:discard best-effort error-body snippet for the message
			err := fmt.Errorf("dist: coordinator %s: %s: %s", c.url, r.Status, bytes.TrimSpace(msg))
			if !httpRetryable(r.StatusCode) {
				return permanent(&rejectedError{err: err})
			}
			return err
		}
	})
	return created, err
}

// followRun streams the run's events, re-attaching from the last
// received Seq whenever the stream breaks, until the terminal record.
// Attaching with ?from and the coordinator epoch gives exactly-once
// event delivery while the coordinator lives; across a restart the
// epoch changes and the coordinator replays its journal-recovered
// history instead, whose terminal record is still delivered exactly
// once.
func (c *Client) followRun(ctx context.Context, created runCreated, progress sim.ProgressFunc) (*sim.Report, error) {
	policy := retryPolicy{Attempts: c.Retries, Base: c.RetryBase, Max: c.RetryMax}.withDefaults()
	maxFails := c.ReattachAttempts
	if maxFails <= 0 {
		maxFails = 8
	}
	var from int64
	epoch := created.Epoch
	fails := 0
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if lastErr != nil {
			fails++
			if fails > maxFails {
				return nil, fmt.Errorf("dist: run %s: re-attach gave up after %d attempt(s): %w",
					created.ID, fails-1, lastErr)
			}
			if progress != nil {
				progress(sim.Progress{Kind: sim.EventReattach, Stage: "sample",
					Attempt: fails, Note: lastErr.Error()})
			}
			select {
			case <-time.After(policy.backoff(fails)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		resp, err := c.attach(ctx, created.ID, from, epoch)
		if err != nil {
			var rej *rejectedError
			if errors.As(err, &rej) {
				return nil, rej.err // the run is gone; reconnecting cannot help
			}
			lastErr = err
			continue
		}
		if e := resp.Header.Get("X-Run-Epoch"); e != "" {
			epoch = e
		}
		dec := json.NewDecoder(resp.Body)
		for {
			var env runEnvelope
			if derr := dec.Decode(&env); derr != nil {
				resp.Body.Close()
				lastErr = fmt.Errorf("dist: run stream from %s broke: %w", c.url, derr)
				break
			}
			fails, lastErr = 0, nil
			if env.Seq > 0 {
				from = env.Seq
			}
			switch {
			case env.Progress != nil:
				if progress != nil {
					progress(env.Progress.progress())
				}
			case env.Error != "":
				resp.Body.Close()
				return nil, fmt.Errorf("dist: %s", env.Error)
			case env.Report != nil:
				resp.Body.Close()
				return reportFrom(env.Report), nil
			}
		}
	}
}

// attach opens (or re-opens) the run's event stream from Seq `from`.
func (c *Client) attach(ctx context.Context, id string, from int64, epoch string) (*http.Response, error) {
	u := fmt.Sprintf("%s/v1/runs/%s/stream?from=%d&epoch=%s", c.url, id, from, url.QueryEscape(epoch))
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, &rejectedError{err: err}
	}
	resp, err := c.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return resp, nil
	case http.StatusNotFound:
		resp.Body.Close()
		return nil, &rejectedError{err: fmt.Errorf("dist: run %s lost: the coordinator no longer knows it", id)}
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) //simlint:discard best-effort error-body snippet for the message
		resp.Body.Close()
		return nil, fmt.Errorf("dist: attach run %s: %s: %s", id, resp.Status, bytes.TrimSpace(msg))
	}
}

// cancelRun tells the coordinator to abort a run the caller no longer
// wants; best-effort with its own short deadline (the caller's context
// is already cancelled).
func (c *Client) cancelRun(id string) {
	dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second) //simlint:noctx the caller's ctx is already cancelled; detached short deadline
	defer cancel()
	hreq, err := http.NewRequestWithContext(dctx, http.MethodDelete, c.url+"/v1/runs/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := c.client.Do(hreq); err == nil {
		resp.Body.Close()
	}
}
