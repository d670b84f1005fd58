package nosql

import "github.com/bdbench/bdbench/internal/stats"

// skipList is an ordered string-keyed map with probabilistic balancing —
// the memtable structure of the store. It is not safe for concurrent use;
// each partition guards its list with a mutex.
type skipList struct {
	head   *skipNode
	level  int
	length int
	g      *stats.RNG
	// path is findPath's scratch, so set and del allocate no search path:
	// the partition's lock serializes writers, and readers never touch it.
	path [maxLevel]*skipNode
}

type skipNode struct {
	key  string
	val  Row
	next []*skipNode
	// tower is next's storage in a node of level <= 2 (15 nodes in 16), so
	// such a node is one allocation.
	tower [2]*skipNode
}

const maxLevel = 24

func newSkipList(g *stats.RNG) *skipList {
	return &skipList{
		head:  &skipNode{next: make([]*skipNode, maxLevel)},
		level: 1,
		g:     g,
	}
}

func (s *skipList) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && s.g.Bool(0.25) {
		lvl++
	}
	return lvl
}

// findPath fills s.path with the rightmost node before key at every level
// in use and returns the node at or after key.
func (s *skipList) findPath(key string) *skipNode {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
		s.path[i] = x
	}
	return x.next[0]
}

// find returns key's node, nil when the list has none.
//
//bdbench:hotpath
func (s *skipList) find(key string) *skipNode {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
	}
	x = x.next[0]
	if x != nil && x.key == key {
		return x
	}
	return nil
}

// set inserts or replaces key's record; it reports whether the key was new.
func (s *skipList) set(key string, val Row) bool {
	found := s.findPath(key)
	if found != nil && found.key == key {
		found.val = val
		return false
	}
	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			s.path[i] = s.head
		}
		s.level = lvl
	}
	node := &skipNode{key: key, val: val}
	if lvl <= len(node.tower) {
		node.next = node.tower[:lvl]
	} else {
		node.next = make([]*skipNode, lvl)
	}
	for i := 0; i < lvl; i++ {
		node.next[i] = s.path[i].next[i]
		s.path[i].next[i] = node
	}
	s.length++
	return true
}

// del removes key; it reports whether the key existed.
func (s *skipList) del(key string) bool {
	found := s.findPath(key)
	if found == nil || found.key != key {
		return false
	}
	for i := 0; i < s.level; i++ {
		if s.path[i].next[i] == found {
			s.path[i].next[i] = found.next[i]
		}
	}
	for s.level > 1 && s.head.next[s.level-1] == nil {
		s.level--
	}
	s.length--
	return true
}

// scanFrom walks keys >= start in order, calling fn until it returns false.
func (s *skipList) scanFrom(start string, fn func(key string, val Row) bool) {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < start {
			x = x.next[i]
		}
	}
	for x = x.next[0]; x != nil; x = x.next[0] {
		if !fn(x.key, x.val) {
			return
		}
	}
}

// len returns the number of keys.
func (s *skipList) len() int { return s.length }
