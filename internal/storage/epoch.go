package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The epoch plane is the storage half of MVCC for live fields. A built store
// is immutable; an update batch never rewrites a base page in place. Instead
// it stages copy-on-write page overlays — full page images keyed by the epoch
// that introduced them — and installs them atomically with CommitOverlays,
// which bumps the pager's current epoch. Every QueryCtx pins the epoch it
// opened at and resolves each page to the newest overlay version at or below
// that epoch (or the base page when none exists), so a reader started before
// a commit keeps seeing the exact store it opened, byte for byte, while
// readers started after the commit see the patched pages — no locks on the
// read path beyond a brief RLock per overlaid-page lookup, and no reader ever
// waits for an updater.
//
// Versions older than every pinned epoch are superseded and compacted away at
// the next commit; the count of epochs that fall below the pin low-water mark
// is reported as "retired" for the update metrics.

// pageVersion is one copy-on-write image of a page, visible to readers pinned
// at v.epoch or later (until a newer version supersedes it).
type pageVersion struct {
	epoch uint64
	frame *frame // immutable; refs never reach zero while installed
}

// epochPlane holds a pager's overlay versions and epoch pins.
type epochPlane struct {
	overlaid atomic.Int64 // number of pages with at least one overlay version

	mu       sync.RWMutex
	versions map[PageID][]pageVersion // ascending by epoch
	pins     map[uint64]int           // epoch -> active readers pinned there
	lowWater uint64                   // oldest epoch still reachable by a new pin
	retired  uint64                   // epochs compacted below the low-water mark
}

// active reports whether any overlay exists, gating the overlay lookup out of
// the read path of never-updated stores.
func (ep *epochPlane) active() bool { return ep.overlaid.Load() > 0 }

// view returns a retained frame for the newest overlay version of id at or
// below epoch, or nil when the base page is current for that epoch.
func (ep *epochPlane) view(id PageID, epoch uint64) *frame {
	ep.mu.RLock()
	vs := ep.versions[id]
	var f *frame
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].epoch <= epoch {
			f = vs[i].frame
			f.Retain()
			break
		}
	}
	ep.mu.RUnlock()
	return f
}

// pin registers a reader at epoch. It fails when the epoch has already been
// compacted below the low-water mark, in which case the caller must re-read
// the current epoch and retry.
func (ep *epochPlane) pin(epoch uint64) bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if epoch < ep.lowWater {
		return false
	}
	if ep.pins == nil {
		ep.pins = make(map[uint64]int)
	}
	ep.pins[epoch]++
	return true
}

// unpin releases one reader's pin. Superseded versions are not reclaimed
// here; the next commit compacts them.
func (ep *epochPlane) unpin(epoch uint64) {
	ep.mu.Lock()
	if n := ep.pins[epoch]; n > 1 {
		ep.pins[epoch] = n - 1
	} else {
		delete(ep.pins, epoch)
	}
	ep.mu.Unlock()
}

// compactLocked drops overlay versions that no current or future reader can
// resolve: for each page, every version older than the newest one at or below
// the minimum pinned epoch. It returns how many epochs newly fell below the
// low-water mark. Callers must hold ep.mu.
func (ep *epochPlane) compactLocked(current uint64) uint64 {
	minPinned := current
	for e := range ep.pins {
		if e < minPinned {
			minPinned = e
		}
	}
	if minPinned <= ep.lowWater {
		return 0
	}
	for id, vs := range ep.versions {
		keep := 0
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i].epoch <= minPinned {
				keep = i
				break
			}
		}
		if keep > 0 {
			ep.versions[id] = append(vs[:0:0], vs[keep:]...)
		}
	}
	retired := minPinned - ep.lowWater
	ep.lowWater = minPinned
	ep.retired += retired
	return retired
}

// CurrentEpoch returns the epoch new queries pin: 0 for a never-updated
// store, incremented by every committed update batch.
func (p *Pager) CurrentEpoch() uint64 { return p.epoch.Load() }

// SetEpoch installs the starting epoch of a store opened from a persisted
// catalog, before any queries run.
func (p *Pager) SetEpoch(e uint64) {
	p.epoch.Store(e)
	p.ov.mu.Lock()
	p.ov.lowWater = e
	p.ov.mu.Unlock()
}

// EpochsRetired returns how many epochs have been compacted below the pin
// low-water mark over the pager's lifetime.
func (p *Pager) EpochsRetired() uint64 {
	p.ov.mu.RLock()
	defer p.ov.mu.RUnlock()
	return p.ov.retired
}

// OverlaidPages returns how many pages currently carry at least one overlay
// version.
func (p *Pager) OverlaidPages() int { return int(p.ov.overlaid.Load()) }

// CommitOverlays atomically installs the staged page images as the next
// epoch and makes that epoch current: readers pinned at the previous epoch
// keep resolving the pages they saw, readers arriving after see every new
// image. The page images are copied, so callers may reuse their buffers. It
// returns the new epoch and how many old epochs were retired by compaction.
// Validation happens before any mutation — a bad image leaves the live epoch
// untouched.
func (p *Pager) CommitOverlays(pages map[PageID][]byte) (epoch, retiredEpochs uint64, err error) {
	ps := p.PageSize()
	numPages := p.NumPages()
	for id, buf := range pages {
		if len(buf) != ps {
			return 0, 0, fmt.Errorf("storage: overlay for page %d is %d bytes, want %d", id, len(buf), ps)
		}
		if int(id) >= numPages {
			return 0, 0, fmt.Errorf("storage: overlay for unallocated page %d of %d", id, numPages)
		}
	}
	p.ov.mu.Lock()
	defer p.ov.mu.Unlock()
	if p.ov.versions == nil {
		p.ov.versions = make(map[PageID][]pageVersion)
	}
	next := p.epoch.Load() + 1
	for id, buf := range pages {
		data := make([]byte, ps)
		copy(data, buf)
		if len(p.ov.versions[id]) == 0 {
			p.ov.overlaid.Add(1)
		}
		p.ov.versions[id] = append(p.ov.versions[id], pageVersion{epoch: next, frame: newFrame(id, data)})
	}
	p.epoch.Store(next)
	return next, p.ov.compactLocked(next), nil
}

// PinEpoch registers an external reader (a snapshot handle) at epoch,
// keeping its overlay versions resolvable until UnpinEpoch. It reports
// whether the epoch is still reachable.
func (p *Pager) PinEpoch(epoch uint64) bool { return p.ov.pin(epoch) }

// UnpinEpoch releases a PinEpoch registration.
func (p *Pager) UnpinEpoch(epoch uint64) { p.ov.unpin(epoch) }
