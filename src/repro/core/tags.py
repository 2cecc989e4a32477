"""Tagged memory: ``tag_new`` / ``tag_delete`` and the reuse cache.

A tag names one segment of the simulated address space (paper section 3.2:
``tag_new`` behaves like anonymous mmap and additionally initialises the
smalloc bookkeeping for that region).  The tag namespace is flat — holding
one tag implies nothing about any other.

``tag_delete`` returns the segment to a userland free-list cache keyed by
size.  ``tag_new`` prefers a cached segment, scrubbing it for secrecy by
copying a cached *pre-initialised bookkeeping image* over it — the paper's
optimisation that makes reuse ~5x cheaper than a fresh mmap (section 4.1,
Figure 8).  The cache can be disabled to measure the ablation.
"""

from __future__ import annotations

import threading

from repro.core.allocator import Heap
from repro.core.errors import TagError
from repro.core.memory import PAGE_SIZE

#: Default size of the segment backing a tag.  Real Wedge lets the tag
#: grow; we keep a fixed default that applications can override.
DEFAULT_TAG_SIZE = 4 * PAGE_SIZE


class Tag:
    """A live tag: an integer id bound to a segment plus its heap."""

    def __init__(self, tag_id, segment, heap, *, name=""):
        self.id = tag_id
        self.segment = segment
        self.heap = heap
        self.name = name or f"tag{tag_id}"
        self.live = True
        #: serialises allocator bookkeeping updates across sthreads, like
        #: the arena lock inside a real multi-threaded malloc
        self.lock = threading.Lock()

    def __repr__(self):
        return f"<Tag {self.id} {self.name!r} seg=#{self.segment.id}>"

    def __int__(self):
        return self.id


class TagManager:
    """Owns the tag namespace, the reuse cache, and the scrub images."""

    def __init__(self, space, costs, *, cache_enabled=True):
        self.space = space
        self.costs = costs
        self.cache_enabled = cache_enabled
        self._tags = {}
        self._next_id = 1
        self._cache = {}         # size -> [segment, ...]
        self._scrub_images = {}  # size -> bytes of a freshly formatted heap
        self.stats = {"fresh": 0, "reused": 0, "deleted": 0}
        # tag creation/deletion may race across concurrent masters
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------------

    def tag_new(self, size=DEFAULT_TAG_SIZE, *, name=""):
        """Create a tag over a segment of *size* bytes."""
        if size <= 0:
            raise TagError("tag size must be positive")
        with self._lock:
            tag_id = self._next_id
            self._next_id += 1
            seg = self._take_cached(size)
        if seg is not None:
            self.stats["reused"] += 1
            seg.tag_id = tag_id
            seg.name = name or f"tag{tag_id}"
            self._scrub(seg, size)
            heap = Heap(seg, size, costs=self.costs)
        else:
            self.stats["fresh"] += 1
            # mmap-equivalent: syscall + VMA setup, then bookkeeping init
            self.costs.charge("syscall")
            seg = self.space.create_segment(size, name=name or
                                            f"tag{tag_id}", kind="tag",
                                            tag_id=tag_id)
            heap = Heap(seg, size, costs=self.costs)
            init_bytes = heap.format()
            self.costs.charge("segment_create")
            self.costs.charge("alloc_init_byte", init_bytes)
            self._remember_image(seg, size, heap)
        tag = Tag(tag_id, seg, heap, name=name)
        self._tags[tag_id] = tag
        return tag

    def tag_delete(self, tag):
        """Delete *tag*; its segment goes to the reuse cache."""
        tag = self.resolve(tag)
        if not tag.live:
            raise TagError(f"double delete of {tag!r}")
        tag.live = False
        del self._tags[tag.id]
        self.stats["deleted"] += 1
        if self.cache_enabled:
            self._cache.setdefault(tag.segment.size, []).append(tag.segment)
        else:
            self.costs.charge("syscall")
            self.costs.charge("segment_destroy")
            self.space.destroy_segment(tag.segment)

    def adopt(self, segment, *, name=""):
        """Wrap an existing segment (a boundary section) in a tag.

        Boundary sections hold statically laid-out globals, not a heap,
        so the resulting tag cannot back ``smalloc`` (``heap`` is None).
        """
        with self._lock:
            tag_id = self._next_id
            self._next_id += 1
        segment.tag_id = tag_id
        tag = Tag(tag_id, segment, None, name=name or segment.name)
        self._tags[tag_id] = tag
        return tag

    def resolve(self, tag):
        """Accept a Tag or an int id; return the live Tag."""
        if isinstance(tag, Tag):
            if not tag.live:
                raise TagError(f"{tag!r} has been deleted")
            return tag
        try:
            return self._tags[int(tag)]
        except (KeyError, TypeError, ValueError):
            raise TagError(f"unknown tag {tag!r}") from None

    def get(self, tag_id):
        return self._tags.get(tag_id)

    def live_tags(self):
        return list(self._tags.values())

    # -- cache internals -----------------------------------------------------------

    def _take_cached(self, size):
        if not self.cache_enabled:
            return None
        bucket = self._cache.get(size)
        if bucket:
            return bucket.pop()
        return None

    def _remember_image(self, seg, size, heap):
        """Cache the pre-initialised bookkeeping patches for scrubbing."""
        if size not in self._scrub_images:
            patches = [(off, seg.read_raw(off, length))
                       for off, length in heap.bookkeeping_extents()]
            self._scrub_images[size] = patches

    def _scrub(self, seg, size):
        """Scrub a reused segment: zero it, then restore bookkeeping.

        The paper avoids recomputing the allocator metadata by copying a
        cached pre-initialised bookkeeping image; the payload bytes must
        still be cleared for secrecy.  The saving relative to a fresh tag
        is the avoided syscall, VMA setup and bookkeeping recomputation.
        """
        seg.scrub()
        self.costs.charge("scrub_page", seg.npages)
        patches = self._scrub_images.get(size)
        if patches is not None:
            for off, data in patches:
                seg.write_raw(off, data)
        else:
            heap = Heap(seg, size, costs=self.costs)
            init_bytes = heap.format()
            self.costs.charge("alloc_init_byte", init_bytes)
            self._remember_image(seg, size, heap)
