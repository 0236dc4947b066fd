package simos

import (
	"container/list"
	"errors"

	"repro/internal/simdisk"
)

// VM models demand paging for the §3.1 memory-sizing probe: "A small
// test program allocates as much memory as it can, clears the memory,
// and then strides through that memory a page at a time, timing each
// reference. If any reference takes more than a few microseconds, the
// page is no longer in memory."
//
// Touching a resident page costs a memory reference; touching a
// non-resident page is a major fault: one page-sized disk read plus
// kernel entry, with the least-recently-used resident page evicted.
type VM struct {
	o         *OS
	disk      *simdisk.Disk
	physPages int64
	pageBytes int64

	resident map[int64]*list.Element
	lru      *list.List // front = most recent

	// Faults counts major faults, for tests.
	Faults int64

	// diskPos scatters fault reads across the swap area.
	diskPos int64
}

// NewVM builds a paging model with the given physical memory, backed
// by disk for major faults.
func (o *OS) NewVM(physBytes int64, pageBytes int64, disk *simdisk.Disk) (*VM, error) {
	if physBytes <= 0 || pageBytes <= 0 {
		return nil, errors.New("simos: VM needs positive sizes")
	}
	if disk == nil {
		return nil, errors.New("simos: VM needs a backing disk")
	}
	return &VM{
		o:         o,
		disk:      disk,
		physPages: physBytes / pageBytes,
		pageBytes: pageBytes,
		resident:  make(map[int64]*list.Element),
		lru:       list.New(),
	}, nil
}

// Touch references one page: a cheap memory access when resident, a
// major fault otherwise.
func (vm *VM) Touch(page int64) {
	if el, ok := vm.resident[page]; ok {
		vm.lru.MoveToFront(el)
		// One memory reference through the hierarchy (addresses in a
		// dedicated high range; simmem addresses are plain numbers).
		vm.o.mem.Load(uint64(1)<<40 + uint64(page*vm.pageBytes))
		return
	}
	vm.Faults++
	// Kernel entry plus a page-sized transfer from the backing store.
	vm.o.Syscall()
	vm.diskPos += vm.pageBytes
	if vm.diskPos+vm.pageBytes > vm.disk.Size() {
		vm.diskPos = 0
	}
	// Swap-area geometry is always within the device by construction.
	_ = vm.disk.Read(vm.diskPos, vm.pageBytes)
	if int64(vm.lru.Len()) >= vm.physPages {
		oldest := vm.lru.Back()
		vm.lru.Remove(oldest)
		delete(vm.resident, oldest.Value.(int64))
	}
	vm.resident[page] = vm.lru.PushFront(page)
}

// TouchPages touches pages [0, n) once each, in order — one pass of
// the §3.1 probe's stride loop.
func (vm *VM) TouchPages(n int64) {
	for p := int64(0); p < n; p++ {
		vm.Touch(p)
	}
}
