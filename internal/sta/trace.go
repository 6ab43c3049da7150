package sta

import (
	"context"
	"fmt"
	"time"

	"qwm/internal/obs"
)

// This file is the engine side of the distributed-tracing layer: when a
// request carries a trace reference (trace.T != nil), the single-flight
// leader's persistent-tier consultation is unrolled into per-member probe
// spans — one per TierChain store, in probe order — and context-aware
// members (the remote-cache client) receive a child trace reference so their
// own attempt/peer spans land in the same tree. The untraced path dispatches
// straight to Tier.Get/Put with zero additional work.

// TierNamer optionally names a TierStore for trace spans ("memory",
// "remote", "disk"). Unnamed members fall back to their probe position.
type TierNamer interface {
	TierName() string
}

// TierGetter is the context-aware read a TierStore may optionally support.
// Traced probes prefer it, passing a context that carries the request's
// trace reference (see obs.TraceFrom) so the store can record child spans —
// the remote-cache client forwards it across the wire.
type TierGetter interface {
	GetCtx(ctx context.Context, key string) (TierEntry, bool)
}

// TierPutter is the context-aware write counterpart: traced write-behind
// passes the trace context so a remote member can stamp the outbound PUT
// with the request's traceparent (the put is asynchronous — no span is
// merged back, the header is for the peer's correlation only).
type TierPutter interface {
	PutCtx(ctx context.Context, key string, e TierEntry)
}

// tierName resolves a member's span name.
func tierName(s TierStore, pos int) string {
	if n, ok := s.(TierNamer); ok {
		return n.TierName()
	}
	return fmt.Sprintf("tier%d", pos)
}

// tierMembers returns the probe-ordered member list: the chain's stores, or
// the single store itself.
func (a *Analyzer) tierMembers() []TierStore {
	if c, ok := a.cfg.Tier.(*TierChain); ok {
		return c.Stores()
	}
	return []TierStore{a.cfg.Tier}
}

// tierGet is the leader's persistent-tier read. Untraced it is exactly
// Config.Tier.Get; traced it probes the members itself (replicating the
// chain's promotion discipline) so each probe becomes one span. Span IDs embed a
// short content hash of the key: one eval may perform two lookups
// (slew-bucket interpolation), and sibling probe groups must not collide.
func (a *Analyzer) tierGet(trace *obs.TraceRef, it *workItem, key string) (TierEntry, bool) {
	if trace.T == nil {
		return a.cfg.Tier.Get(key)
	}
	evalID := fmt.Sprintf("%s.L%d.e%d", trace.Parent, it.level, it.idx)
	groupID := fmt.Sprintf("%s.k%08x", evalID, obs.KeyHash32(key))
	members := a.tierMembers()
	for j, st := range members {
		name := tierName(st, j)
		probeID := fmt.Sprintf("%s.t%d-%s", groupID, j, name)
		start := time.Now()
		var (
			e  TierEntry
			ok bool
		)
		if g, traced := st.(TierGetter); traced {
			ctx := obs.ContextWithTrace(context.Background(), obs.TraceRef{
				T: trace.T, Parent: probeID, Level: it.level, Item: it.idx,
			})
			e, ok = g.GetCtx(ctx, key)
		} else {
			e, ok = st.Get(key)
		}
		hit := ok && e.Valid()
		trace.T.Add(obs.ReqSpan{
			ID: probeID, Parent: evalID, Name: "tier " + name,
			Level: it.level, Item: it.idx,
			Start: start, Dur: time.Since(start),
			Attrs: map[string]any{"tier": name, "hit": hit},
		})
		if hit {
			for p := j - 1; p >= 0; p-- {
				members[p].Put(key, e)
			}
			return e, true
		}
	}
	return TierEntry{}, false
}

// tierPut is the leader's write-behind. Untraced it is exactly Config.Tier.Put;
// traced it fans out itself so context-aware members see the trace context.
func (a *Analyzer) tierPut(trace *obs.TraceRef, it *workItem, key string, e TierEntry) {
	if trace.T == nil {
		a.cfg.Tier.Put(key, e)
		return
	}
	evalID := fmt.Sprintf("%s.L%d.e%d", trace.Parent, it.level, it.idx)
	putID := fmt.Sprintf("%s.k%08x.put", evalID, obs.KeyHash32(key))
	ctx := obs.ContextWithTrace(context.Background(), obs.TraceRef{
		T: trace.T, Parent: putID, Level: it.level, Item: it.idx,
	})
	for _, st := range a.tierMembers() {
		if p, traced := st.(TierPutter); traced {
			p.PutCtx(ctx, key, e)
		} else {
			st.Put(key, e)
		}
	}
}
