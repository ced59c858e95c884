package storage

import (
	"bytes"
	"testing"
)

// commitPatch stages one patched copy of page id (flipping its first byte to
// b) and commits it as a new epoch.
func commitPatch(t *testing.T, p *Pager, id PageID, b byte) uint64 {
	t.Helper()
	qc := p.BeginQuery()
	defer qc.Release()
	buf := readPage(t, qc, id)
	buf[0] = b
	epoch, _, err := p.CommitOverlays(map[PageID][]byte{id: buf})
	if err != nil {
		t.Fatal(err)
	}
	return epoch
}

func readAt(t *testing.T, p *Pager, epoch uint64, id PageID) []byte {
	t.Helper()
	qc, ok := p.BeginQueryAt(epoch)
	if !ok {
		t.Fatalf("epoch %d not pinnable", epoch)
	}
	defer qc.Release()
	return readPage(t, qc, id)
}

func TestOverlayVisibilityAcrossEpochs(t *testing.T) {
	p := NewPager(NewMemDisk(64), DefaultDiskModel, 0)
	id, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	base := bytes.Repeat([]byte{0xAA}, 64)
	if err := p.WritePage(id, base); err != nil {
		t.Fatal(err)
	}
	if p.CurrentEpoch() != 0 {
		t.Fatalf("fresh store at epoch %d", p.CurrentEpoch())
	}

	// A reader pinned before the commit keeps seeing the base image.
	if !p.PinEpoch(0) {
		t.Fatal("cannot pin epoch 0")
	}
	e1 := commitPatch(t, p, id, 0xB1)
	if e1 != 1 || p.CurrentEpoch() != 1 {
		t.Fatalf("epoch after first commit = %d / %d", e1, p.CurrentEpoch())
	}
	e2 := commitPatch(t, p, id, 0xB2)

	if got := readAt(t, p, 0, id); got[0] != 0xAA {
		t.Fatalf("epoch 0 sees %#x", got[0])
	}
	if got := readAt(t, p, e1, id); got[0] != 0xB1 {
		t.Fatalf("epoch 1 sees %#x", got[0])
	}
	if got := readAt(t, p, e2, id); got[0] != 0xB2 {
		t.Fatalf("epoch 2 sees %#x", got[0])
	}
	// Unpatched bytes are identical at every epoch.
	if got := readAt(t, p, e2, id); !bytes.Equal(got[1:], base[1:]) {
		t.Fatal("patched page corrupted beyond byte 0")
	}
	if p.OverlaidPages() != 1 {
		t.Fatalf("OverlaidPages = %d", p.OverlaidPages())
	}
	p.UnpinEpoch(0)
}

func TestPinHoldsEpochAndCompactionRetires(t *testing.T) {
	p := NewPager(NewMemDisk(64), DefaultDiskModel, 0)
	id, _ := p.Alloc()
	p.WritePage(id, make([]byte, 64))

	if !p.PinEpoch(0) {
		t.Fatal("cannot pin current epoch")
	}
	commitPatch(t, p, id, 1)
	// The pin at 0 keeps epoch 0 alive across the commit.
	if got := readAt(t, p, 0, id); got[0] != 0 {
		t.Fatalf("pinned epoch 0 sees %#x", got[0])
	}
	if p.EpochsRetired() != 0 {
		t.Fatalf("retired %d with a live pin", p.EpochsRetired())
	}
	p.UnpinEpoch(0)

	// With no pins below, the next commit compacts epochs 0 and 1 away.
	_, retired, err := p.CommitOverlays(map[PageID][]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if retired != 2 || p.EpochsRetired() != 2 {
		t.Fatalf("retired = %d, total %d", retired, p.EpochsRetired())
	}
	if p.PinEpoch(0) {
		t.Fatal("compacted epoch 0 still pinnable")
	}
	if _, ok := p.BeginQueryAt(1); ok {
		t.Fatal("compacted epoch 1 still queryable")
	}
}

func TestCommitOverlaysValidatesBeforeMutating(t *testing.T) {
	p := NewPager(NewMemDisk(64), DefaultDiskModel, 0)
	id, _ := p.Alloc()
	p.WritePage(id, bytes.Repeat([]byte{7}, 64))

	// A torn (short) page image is rejected.
	if _, _, err := p.CommitOverlays(map[PageID][]byte{id: make([]byte, 63)}); err == nil {
		t.Fatal("short overlay accepted")
	}
	// An overlay for a page the store never allocated is rejected.
	if _, _, err := p.CommitOverlays(map[PageID][]byte{PageID(99): make([]byte, 64)}); err == nil {
		t.Fatal("unallocated overlay accepted")
	}
	// The live epoch and its bytes are untouched by the failed commits.
	if p.CurrentEpoch() != 0 || p.OverlaidPages() != 0 {
		t.Fatalf("failed commit moved the store: epoch %d, %d overlaid",
			p.CurrentEpoch(), p.OverlaidPages())
	}
	if got := readAt(t, p, 0, id); got[0] != 7 {
		t.Fatalf("base page corrupted: %#x", got[0])
	}
}

func TestSnapshotToMaterializesOverlays(t *testing.T) {
	p := NewPager(NewMemDisk(64), DefaultDiskModel, 0)
	id, _ := p.Alloc()
	p.WritePage(id, bytes.Repeat([]byte{0x11}, 64))
	commitPatch(t, p, id, 0x22)

	dst := tempFileDisk(t, 64)
	if err := p.SnapshotTo(dst); err != nil {
		t.Fatal(err)
	}
	buf := diskPage(t, dst, id)
	// The copy holds the patched image: persisting after updates writes the
	// current epoch's bytes as plain base pages.
	if buf[0] != 0x22 || buf[1] != 0x11 {
		t.Fatalf("snapshot bytes = %#x %#x", buf[0], buf[1])
	}
}
