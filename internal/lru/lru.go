// Package lru is the byte-budget least-recently-used map behind the tile
// cache's memory tier and the warm-start library's prepared seeds.
package lru

import "container/list"

// Cache maps keys to values under a byte budget, dropping the least
// recently used entries to stay within it. It is not safe for concurrent
// use: the owner calls it under its own lock.
type Cache[K comparable, V any] struct {
	budget int64
	order  *list.List // of *entry[K, V]; front = most recently used
	byKey  map[K]*list.Element
	bytes  int64
}

type entry[K comparable, V any] struct {
	key   K
	val   V
	bytes int64
}

// New returns an empty cache holding at most budget bytes; a budget of 0
// keeps nothing.
func New[K comparable, V any](budget int64) *Cache[K, V] {
	return &Cache[K, V]{budget: budget, order: list.New(), byKey: make(map[K]*list.Element)}
}

// Get returns the value under key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add inserts val under key, charged bytes against the budget, and
// reports whether it went in and how many entries were evicted to make
// room. A key already present keeps its value and is marked most recently
// used; a value larger than the whole budget is not kept.
func (c *Cache[K, V]) Add(key K, val V, bytes int64) (added bool, evicted int) {
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		return false, 0
	}
	if bytes > c.budget {
		return false, 0
	}
	c.byKey[key] = c.order.PushFront(&entry[K, V]{key: key, val: val, bytes: bytes})
	c.bytes += bytes
	for c.bytes > c.budget {
		victim := c.order.Remove(c.order.Back()).(*entry[K, V])
		delete(c.byKey, victim.key)
		c.bytes -= victim.bytes
		evicted++
	}
	return true, evicted
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int { return c.order.Len() }

// Bytes returns the bytes charged to the resident entries.
func (c *Cache[K, V]) Bytes() int64 { return c.bytes }
