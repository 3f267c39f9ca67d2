package main

import (
	"fmt"
	"syscall"

	"github.com/rtc-compliance/rtcc/internal/pcap"
)

// arena holds the benchmark's copy of its input frames in memory the
// Go heap does not manage. A capture held on the heap would count in
// the heap the benchmark reports and raise the collector's
// target, so collections would run less often than when the program
// reads a capture from disk or a socket; off the heap it does
// neither. Frames in an arena never change and stay valid until free.
type arena struct {
	mem []byte
	off int
}

// newArena maps an arena large enough for the frames.
func newArena(frames []pcap.Packet) (*arena, error) {
	size := 1
	for _, f := range frames {
		size += len(f.Data)
	}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d bytes for the input: %w", size, err)
	}
	return &arena{mem: mem}, nil
}

// offHeap moves the frames' bytes into a new arena, in place: on
// return every frame's Data points into the arena, and the heap copy
// is garbage once the caller drops other references to it.
func offHeap(frames []pcap.Packet) (*arena, error) {
	a, err := newArena(frames)
	if err != nil {
		return nil, err
	}
	for i := range frames {
		n := copy(a.mem[a.off:], frames[i].Data)
		frames[i].Data = a.mem[a.off : a.off+n : a.off+n]
		a.off += n
	}
	return a, nil
}

// free unmaps the arena; no frame in it may be used afterwards.
func (a *arena) free() error {
	if a == nil {
		return nil
	}
	return syscall.Munmap(a.mem)
}
