/* Compiled kernel of falab: the byte-stream scan behind falab.Simulator,
   and the subset walk, partition refinement and table flip behind
   falab.transform's determinization and minimization.

   step_stream(program, data, rules=None), active_sets(program, data),
   subsets(program, cap), flip(natoms, labels, table) and refine(program)
   keep the contracts of falab._simkernel_py, which is their
   specification: the same flat program (n, ncls, off, succ, init,
   always, report), the same ((per_cycle_count, activation, reports),
   work) summary or, with rules = (rule_of, raw_start), the same
   (active_rules, moving_rules) pairs, the same per-cycle frozensets from
   active_sets, the same operation count, the same (labels, table)
   numbering from subsets, or None where more than cap subsets would be
   found, the same program from flip and the same blocks from refine.
   The module imports no part of falab, only the standard array module
   for its results.  The arrays are read in place through the buffer
   protocol, never copied.  One pass checks a program's arrays before the
   scan, walk or refinement: an argument that is not a buffer, or whose
   items are not 'i' (raw_start: 'B'), raises TypeError; a wrong length,
   offsets that decrease or do not end at len(succ), a state outside
   0..n-1 or a report item outside -1..n-1 raises ValueError naming the
   array and index.  The walk keeps each subset as the span of its
   nonzero 64-bit words, found again through an open-addressing hash of
   the spans, and counts each subset's report labels with per-label
   stamps, as the scan does per cycle; the spans never leave the module.

   The scan steps the whole active set at once, as a bitset of W =
   ceil(n / 64) words (as Hyperscan's LimEx NFA does, Wang et al., NSDI
   2019).  A class's moves are grouped by offset k = d - s: an offset
   that at least W moves of the class share becomes a shift mask, the
   states that move by k, and the states with any other move are the
   class's rare states.  A step starts the next set from the always
   states, ORs into it each of the byte's class's masks, ANDed with the
   active set and shifted by k, then sets the successors in the rows of
   the active rare states.  A call builds a class, in O(n + its moves),
   only once the rows it has walked on the class cost about as much;
   until then every state of the class is rare.  So a short scan, or one
   whose activity dies, walks rows as the specification does and builds
   nothing, and a long busy one builds each of its busy classes once.
   Only the span between the first and the last nonzero word of a set is
   walked, so a cycle with few active states costs little whatever n is.

   The per-cycle records work a word of the set at a time.  The summary
   takes a cycle's count from popcounts, and adds its activations to
   bit-sliced counters, TALLY bit-planes over the words that a carry
   ripples through, flushed into the per-state counts before any can
   overflow.  It reads the reports off the words of the labeled states in
   ascending order, so they come out in state order, each label's at its
   smallest state, with no sort.  Counting mode first splits each word's
   states into pieces, the runs of one rule, as (rule, mask) pairs; per
   word, a rule is active when the word meets one of its masks, and
   moving when the word's states that are not raw starts do, and stamps
   count each rule once.  The operation count stays the specification's:
   the lengths of the rows of the states active before each byte, on its
   class, plus the always states.  The step has those rows at hand: until
   a class is built, it walks every active state's row; a built class
   keeps its row lengths as bit-planes, and their popcounts against the
   set give the sum.

   flip(natoms, labels, table) takes the dense table of n = len(labels)
   states over natoms atoms that subsets returns: table[s * natoms + i]
   is the state s reaches on atom i, or -1 for no move, and s accepts
   where labels[s] > 0.  It completes the table with the dead state n,
   which every -1 target reaches and which loops on every atom, and
   returns the program of those n + 1 states with every move reversed:
   the inverse table, by counting sort, as off and succ, the accepting
   states as init, no always states, and a report at state 0 alone.
   labels or table not a buffer of 'i' items raises TypeError; natoms
   outside 0..256, len(table) other than n * natoms, or a target outside
   -1..n-1 raises ValueError naming the array and index.

   refine(program) refines the complete DFA that a flipped program
   reverses: the program's rows are its predecessors and init its
   accepting states.  It returns an array('i') with the block of each
   state, the dead state last, blocks numbered in order of their smallest
   member, so it equals the Python kernel's result item for item.  It
   refines Hopcroft's way (only the smaller half of a split waits) on a
   partition refined in place, in O(m log n) for m moves; its scratch
   memory is freed on every path.

   FORMAT numbers this program layout and contract; falab.transform uses
   the module only when it equals falab._simkernel_py.FORMAT. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define FORMAT 10

/* The functions that popcount each word of an active set are compiled
   twice, with and without the POPCNT instruction, and the loader picks
   the copy that the CPU runs; the default x86-64 target has no POPCNT,
   and libgcc's __popcountdi2 stands in for it, at a call per word.  The
   copies need ifunc support from the toolchain and glibc; elsewhere one
   copy is built. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) \
    && defined(__has_attribute)
#if __has_attribute(target_clones)
#define POPCOUNT_CLONES __attribute__((target_clones("popcnt", "default")))
#endif
#endif
#ifndef POPCOUNT_CLONES
#define POPCOUNT_CLONES
#endif

/* Buffer views, acquired in this order (DATA only for a scan, RULE_OF
   and RAW_START only with rules), with their names and item formats;
   data may be any bytes-like object. */
enum { OFF, SUCC, INIT, ALWAYS, REPORT, DATA, RULE_OF, RAW_START, NVIEWS };
static const char *const names[NVIEWS] = {
    "off", "succ", "init", "always", "report", "data", "rule_of",
    "raw_start"};
static const char *const formats[NVIEWS] = {
    "i", "i", "i", "i", "i", NULL, "i", "B"};

/* What a scan records per cycle, or a subset walk (also the mode that
   loads a program alone, for refine). */
typedef enum { SETS, SUMMARY, RULES, WALK } Mode;

typedef struct {
    Py_ssize_t n, ncls;
    Py_buffer views[NVIEWS];
    Py_ssize_t len[NVIEWS];  /* items per view */
    int held;                /* views[0..held-1] are acquired */
} Program;

#define ITEMS(p, i) ((const int32_t *)(p)->views[i].buf)

/* View obj, named name, as a buffer of fmt items (NULL: any bytes-like
   object); its item count, or -1 with no view held. */
static Py_ssize_t
get_items(Py_buffer *view, PyObject *obj, const char *name, const char *fmt)
{
    if (!PyObject_CheckBuffer(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be a %s, not '%.100s'",
                     name, fmt ? "buffer" : "bytes-like object",
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    if (PyObject_GetBuffer(obj, view, fmt ? PyBUF_FORMAT | PyBUF_C_CONTIGUOUS
                                          : PyBUF_SIMPLE) < 0)
        return -1;
    if (fmt && strcmp(view->format, fmt) != 0) {
        PyErr_Format(PyExc_TypeError, "%s must hold '%s' items, not '%s'",
                     name, fmt, view->format);
        PyBuffer_Release(view);
        return -1;
    }
    return fmt ? view->len / view->itemsize : view->len;
}

/* Acquire obj as view i. */
static int
acquire(Program *p, int i, PyObject *obj)
{
    if ((p->len[i] = get_items(&p->views[i], obj, names[i], formats[i])) < 0)
        return -1;
    p->held = i + 1;
    return 0;
}

/* The checks that read the items, in one pass over the views. */
static int
check(const Program *p)
{
    const int32_t *off = ITEMS(p, OFF);
    Py_ssize_t rows = p->n * p->ncls;

    if (p->len[OFF] != rows + 1) {
        PyErr_Format(PyExc_ValueError, "off must have n * ncls + 1 = %zd "
                     "items, not %zd", rows + 1, p->len[OFF]);
        return -1;
    }
    for (Py_ssize_t k = 0; k <= rows; k++)
        if (off[k] < (k ? off[k - 1] : 0)) {
            PyErr_Format(PyExc_ValueError, "off[%zd] is %d, below %d before "
                         "it", k, (int)off[k], k ? (int)off[k - 1] : 0);
            return -1;
        }
    if (off[rows] != p->len[SUCC]) {
        PyErr_Format(PyExc_ValueError, "off[%zd] is %d, not len(succ) = %zd",
                     rows, (int)off[rows], p->len[SUCC]);
        return -1;
    }
    if (p->len[REPORT] != p->n) {
        PyErr_Format(PyExc_ValueError, "report must have one item per state "
                     "(%zd), not %zd", p->n, p->len[REPORT]);
        return -1;
    }
    if (p->held > RULE_OF && (p->len[RULE_OF] != p->n
                              || p->len[RAW_START] != p->n)) {
        PyErr_Format(PyExc_ValueError, "rule_of and raw_start must have one "
                     "item per state (%zd), not %zd and %zd", p->n,
                     p->len[RULE_OF], p->len[RAW_START]);
        return -1;
    }
    for (int i = SUCC; i < p->held && i <= RULE_OF; i++) {
        if (i == DATA)
            continue;
        const int32_t *items = ITEMS(p, i);
        int lo = i == REPORT ? -1 : 0;
        for (Py_ssize_t k = 0; k < p->len[i]; k++)
            if (items[k] < lo || items[k] >= p->n) {
                PyErr_Format(PyExc_ValueError, "%s[%zd] is %d, outside "
                             "%d..%zd", names[i], k, (int)items[k], lo,
                             p->n - 1);
                return -1;
            }
    }
    return 0;
}

/* The moves of one class, as the scan steps them.  A move s -> d that
   shares its offset k = d - s with at least W = ceil(n / 64) moves of the
   class belongs to the class's mask for k: the states with that move, as
   a bitset of W words, so one masked shift of the active set's words
   makes all of them.  A state with any other move on the class is rare,
   and steps through its own row of the program.  Until the class is
   built, every state is rare.  Plane j holds the states whose row on the
   class has a length with bit j set, so the rows of a set of states add
   up to the sum over j of 2^j times its states in plane j. */
typedef struct {
    Py_ssize_t nmasks;
    int32_t *shift;        /* per mask: its offset k */
    uint64_t *mask;        /* per mask: W words, between two spare words,
                              then the rare states' W words and the
                              planes' W words each; NULL until the class
                              is built */
    const uint64_t *rare;  /* W words */
    const uint64_t *plane; /* nplanes * W words */
    int nplanes;           /* the bit length of the longest row */
    Py_ssize_t walked;     /* the successors its rare rows have set */
} Class;

/* Build class c of a checked program into x, in two passes over its n
   rows (one to count each offset's moves, one to set the bits) and
   O(n + the class's moves) time. */
static int
build(const Program *p, Py_ssize_t c, Py_ssize_t words, Class *x)
{
    const int32_t *off = ITEMS(p, OFF), *succ = ITEMS(p, SUCC);
    Py_ssize_t n = p->n, ncls = p->ncls, nseen = 0, nmasks = 0;
    /* per offset k, at k + n: its moves, then its mask + 1 or 0 */
    int32_t *count = PyMem_Calloc(2 * n + 1, sizeof *count);
    int32_t *seen = PyMem_Malloc((2 * n + 1) * sizeof *seen);
    int32_t longest = 0;
    int ok = -1;

    if (!count || !seen)
        goto done;
    for (Py_ssize_t s = 0; s < n; s++) {
        const int32_t *row = off + s * ncls + c;
        longest = row[1] - row[0] > longest ? row[1] - row[0] : longest;
        for (int32_t j = row[0]; j < row[1]; j++) {
            Py_ssize_t k = succ[j] - s;
            if (count[k + n]++ == 0)
                seen[nseen++] = (int32_t)k;
        }
    }
    while (longest >> x->nplanes)
        x->nplanes++;
    for (Py_ssize_t i = 0; i < nseen; i++)
        nmasks += count[seen[i] + n] >= words;
    x->shift = PyMem_Malloc((nmasks + 1) * sizeof *x->shift);
    x->mask = PyMem_Calloc((nmasks + 1 + x->nplanes) * words + 2,
                           sizeof *x->mask);
    if (!x->shift || !x->mask)
        goto done;
    for (Py_ssize_t i = 0; i < nseen; i++) {
        int32_t *k = &count[seen[i] + n];
        if (*k >= words) {
            x->shift[x->nmasks] = seen[i];
            *k = (int32_t)++x->nmasks;
        }
        else
            *k = 0;
    }
    uint64_t *rare = x->mask + 2 + nmasks * words, *plane = rare + words;
    for (Py_ssize_t s = 0; s < n; s++) {
        const int32_t *row = off + s * ncls + c;
        uint64_t bit = (uint64_t)1 << (s & 63);
        for (int32_t j = row[0]; j < row[1]; j++) {
            int32_t m = count[succ[j] - s + n];
            if (m)
                x->mask[1 + (m - 1) * words + (s >> 6)] |= bit;
            else
                rare[s >> 6] |= bit;
        }
        for (int k = 0; k < x->nplanes; k++)
            if ((row[1] - row[0]) >> k & 1)
                plane[k * words + (s >> 6)] |= bit;
    }
    x->rare = rare;
    x->plane = plane;
    ok = 0;
done:
    PyMem_Free(count);
    PyMem_Free(seen);
    if (ok < 0)
        PyErr_NoMemory();
    return ok;
}

/* The row lengths of the states of bits[lo..hi] on class x, built. */
static POPCOUNT_CLONES unsigned long long
row_work(const Class *x, const uint64_t *bits, Py_ssize_t lo, Py_ssize_t hi,
         Py_ssize_t words)
{
    unsigned long long work = 0;

    for (int k = 0; k < x->nplanes; k++) {
        const uint64_t *plane = x->plane + k * words;
        unsigned long long ones = 0;
        for (Py_ssize_t i = lo; i <= hi; i++)
            ones += __builtin_popcountll(bits[i] & plane[i]);
        work += ones << k;
    }
    return work;
}

/* A run of states of one rule within one word of the active set. */
typedef struct {
    uint64_t mask;  /* its states' bits */
    int32_t rule;
} Piece;

/* Per-scan scratch, each mode's only: per-state or per-rule arrays of
   n + 1 items, and bitsets of W words. */
typedef struct {
    Py_ssize_t *seen;        /* per-rule or per-label stamps */
    Py_ssize_t *moving;      /* RULES: per-rule stamps of moving rules */
    Py_ssize_t *activation;  /* SUMMARY: cycles each state is active */
    uint64_t *reporting;     /* SUMMARY: the states with a label */
    uint64_t *tally;         /* SUMMARY: TALLY planes, then a carry */
    Py_ssize_t words;        /* W */
    Py_ssize_t since;        /* SUMMARY: the cycles tally has counted */
    Piece *pieces;           /* RULES: word i's are first[i]..first[i+1]-1 */
    Py_ssize_t *first;       /* RULES: W + 1 items */
    uint64_t *moves;         /* RULES: the states that are not raw starts */
    unsigned long long work; /* the operation count so far */
    PyObject *ints;          /* SETS: the state ids as Python ints */
    PyObject *reports;       /* SUMMARY: the (cycle, state) list */
} Scratch;

/* Split each word of the states into its runs of one rule, in O(n).  A
   merged program numbers each rule's states contiguously, so its words
   hold about W + rules pieces in all; rules interleaved state by state
   give a piece per state. */
static void
split_rules(const Program *p, Scratch *w)
{
    const int32_t *rule = ITEMS(p, RULE_OF);
    const unsigned char *raw_start = p->views[RAW_START].buf;
    Py_ssize_t count = 0;

    for (Py_ssize_t i = 0; i * 64 < p->n; i++) {
        const int32_t *of = rule + i * 64;
        int top = p->n - i * 64 < 64 ? (int)(p->n - i * 64) : 64;
        uint64_t piece = 1, moves = !raw_start[i * 64];
        w->first[i] = count;
        for (int b = 1; b < top; b++) {
            if (of[b] != of[b - 1]) {
                w->pieces[count++] = (Piece){piece, of[b - 1]};
                piece = 0;
            }
            piece |= (uint64_t)1 << b;
            moves |= (uint64_t)!raw_start[i * 64 + b] << b;
        }
        w->pieces[count++] = (Piece){piece, of[top - 1]};
        w->moves[i] = moves;
    }
    w->first[(p->n + 63) / 64] = count;
}

/* One cycle's record of the active set, the bits of words lo..hi, in
   each mode: the set; its (active, moving) rule counts; or its active
   count, after adding its reports and activations to w.  The stamp of
   cycle t is t + 1. */

static PyObject *
record_set(Scratch *w, const uint64_t *bits, Py_ssize_t lo, Py_ssize_t hi)
{
    PyObject *set = PyFrozenSet_New(NULL);

    for (Py_ssize_t i = lo; set != NULL && i <= hi; i++)
        for (uint64_t word = bits[i]; word; word &= word - 1) {
            Py_ssize_t s = i * 64 + __builtin_ctzll(word);
            if (PySet_Add(set, PyList_GET_ITEM(w->ints, s)) < 0) {
                Py_DECREF(set);
                return NULL;
            }
        }
    return set;
}

/* Without branches: on is 1 for a piece that meets the word, go for one
   that meets its states that are not raw starts, and only those stamp
   their rule. */
static PyObject *
record_rules(Scratch *w, const uint64_t *bits, Py_ssize_t lo, Py_ssize_t hi,
             Py_ssize_t stamp)
{
    Py_ssize_t rules = 0, moved = 0;

    for (Py_ssize_t i = lo; i <= hi; i++) {
        uint64_t word = bits[i], moves = word & w->moves[i];
        for (const Piece *x = w->pieces + w->first[i],
                         *end = w->pieces + w->first[i + 1]; x < end; x++) {
            int32_t r = x->rule;
            Py_ssize_t on = (word & x->mask) != 0, go = (moves & x->mask) != 0;
            Py_ssize_t last = w->seen[r], was = w->moving[r];
            rules += on & (last != stamp);
            w->seen[r] = last + (stamp - last) * on;
            moved += go & (was != stamp);
            w->moving[r] = was + (stamp - was) * go;
        }
    }
    return Py_BuildValue("(nn)", rules, moved);
}

/* Summary mode counts activations in TALLY bit-planes over the words:
   plane j holds bit j of each state's count since the last flush.  A
   cycle adds its set by rippling a carry through the planes, each plane
   a pass over the set's words, and flush adds the counts to activation[]
   every 2^TALLY - 1 cycles, before any of them overflows. */
#define TALLY 8

static void
flush(Scratch *w)
{
    for (int j = 0; j < TALLY; j++) {
        uint64_t *plane = w->tally + j * w->words;
        for (Py_ssize_t i = 0; i < w->words; i++) {
            for (uint64_t word = plane[i]; word; word &= word - 1)
                w->activation[i * 64 + __builtin_ctzll(word)] +=
                    (Py_ssize_t)1 << j;
            plane[i] = 0;
        }
    }
    w->since = 0;
}

static POPCOUNT_CLONES PyObject *
record_summary(const Program *p, Scratch *w, const uint64_t *bits,
               Py_ssize_t lo, Py_ssize_t hi, Py_ssize_t t)
{
    Py_ssize_t stamp = t + 1;
    const int32_t *report = ITEMS(p, REPORT);
    Py_ssize_t count = 0;

    for (Py_ssize_t i = lo; i <= hi; i++) {
        count += __builtin_popcountll(bits[i]);
        /* in ascending order, a label's first state is its smallest, and
           the reports come out in state order */
        for (uint64_t word = bits[i] & w->reporting[i]; word;
             word &= word - 1) {
            Py_ssize_t s = i * 64 + __builtin_ctzll(word);
            int32_t k = report[s];
            if (w->seen[k] != stamp) {
                w->seen[k] = stamp;
                PyObject *pair = Py_BuildValue("(nn)", t, s);
                if (pair == NULL || PyList_Append(w->reports, pair) < 0) {
                    Py_XDECREF(pair);
                    return NULL;
                }
                Py_DECREF(pair);
            }
        }
    }
    /* a carry that reaches no plane ends the ripple */
    uint64_t *carry = w->tally + TALLY * w->words;
    const uint64_t *add = bits;
    for (int j = 0; j < TALLY; j++, add = carry) {
        uint64_t *plane = w->tally + j * w->words, any = 0;
        for (Py_ssize_t i = lo; i <= hi; i++) {
            uint64_t up = plane[i] & add[i];
            plane[i] ^= add[i];
            carry[i] = up;
            any |= up;
        }
        if (!any)
            break;
    }
    if (++w->since == (1 << TALLY) - 1)
        flush(w);
    return PyLong_FromSsize_t(count);
}

/* A list of the first count items of values, as Python ints. */
static PyObject *
int_list(const Py_ssize_t *values, Py_ssize_t count)
{
    PyObject *list = PyList_New(count);

    for (Py_ssize_t i = 0; list != NULL && i < count; i++) {
        PyObject *v = PyLong_FromSsize_t(values ? values[i] : i);
        if (v == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, v);
    }
    return list;
}

/* Narrow lo..hi to the span of the nonzero words of bits in it; lo > hi
   when there are none. */
static void
trim(const uint64_t *bits, Py_ssize_t *lo, Py_ssize_t *hi)
{
    while (*lo <= *hi && bits[*lo] == 0)
        ++*lo;
    while (*hi >= *lo && bits[*hi] == 0)
        --*hi;
}

/* Set the bits of items[0..count-1] in bits, widening the nonzero span
   [*lo, *hi]. */
static void
set_bits(uint64_t *bits, const int32_t *items, Py_ssize_t count,
         Py_ssize_t *lo, Py_ssize_t *hi)
{
    for (Py_ssize_t j = 0; j < count; j++) {
        Py_ssize_t w = items[j] >> 6;
        bits[w] |= (uint64_t)1 << (items[j] & 63);
        if (w < *lo)
            *lo = w;
        if (w > *hi)
            *hi = w;
    }
}

static PyObject *
scan(const Program *p, Mode mode)
{
    const unsigned char *data = p->views[DATA].buf;
    const int32_t *off = ITEMS(p, OFF), *succ = ITEMS(p, SUCC);
    const int32_t *init = ITEMS(p, INIT), *report = ITEMS(p, REPORT);
    Py_ssize_t len = p->len[DATA], ninit = p->len[INIT];
    Py_ssize_t nalways = p->len[ALWAYS], n = p->n, ncls = p->ncls;
    Py_ssize_t words = (n + 63) / 64;
    /* About what building a class costs: its n rows and, on average,
       len(succ) / ncls moves.  A class is built once its rows have set
       that many successors in this call, so a scan pays at most about
       twice what the better of walking rows and building would, and a
       scan whose activity dies soon builds nothing. */
    Py_ssize_t price = n + (ncls ? p->len[SUCC] / ncls : 0);
    /* The active sets, this cycle's and the next's, as bitsets with W
       spare words on each side: a masked shift of word i by k lands in
       word i + floor(k / 64) and the one after, and with |k| < n both
       stay within the spares.  The spares stay zero, as every move lands
       on a state. */
    uint64_t *sets = PyMem_Calloc(6 * words + 1, sizeof *sets);
    uint64_t *every = PyMem_Calloc(words + 1, sizeof *every);
    uint64_t *all = PyMem_Malloc((words + 1) * sizeof *all);
    Class *cls = PyMem_Calloc(ncls + 1, sizeof *cls);
    /* each mode's scratch, and nothing of the others' */
    int summary = mode == SUMMARY, rules = mode == RULES;
    Scratch w = {
        .seen = mode != SETS ? PyMem_Calloc(n + 1, sizeof *w.seen) : NULL,
        .moving = rules ? PyMem_Calloc(n + 1, sizeof *w.moving) : NULL,
        .activation = summary ? PyMem_Calloc(n + 1, sizeof *w.activation)
                              : NULL,
        .reporting = summary ? PyMem_Calloc(words + 1, sizeof *w.reporting)
                             : NULL,
        .tally = summary ? PyMem_Calloc((TALLY + 1) * words + 1,
                                        sizeof *w.tally) : NULL,
        .words = words,
        .pieces = rules ? PyMem_Malloc((n + 1) * sizeof *w.pieces) : NULL,
        .first = rules ? PyMem_Malloc((words + 1) * sizeof *w.first) : NULL,
        .moves = rules ? PyMem_Malloc((words + 1) * sizeof *w.moves) : NULL,
        .ints = mode == SETS ? int_list(NULL, n) : NULL,
        .reports = summary ? PyList_New(0) : NULL,
    };
    PyObject *out = PyList_New(len), *activation = NULL, *result = NULL;

    if (out == NULL || (mode == SETS && w.ints == NULL)
        || (summary && w.reports == NULL))
        goto done;
    if (!sets || !every || !all || !cls || (mode != SETS && !w.seen)
        || (summary && (!w.activation || !w.reporting || !w.tally))
        || (rules && (!w.moving || !w.pieces || !w.first || !w.moves))) {
        PyErr_NoMemory();
        goto done;
    }
    if (rules)
        split_rules(p, &w);
    for (Py_ssize_t s = 0; summary && s < n; s++)
        w.reporting[s >> 6] |= (uint64_t)(report[s] >= 0) << (s & 63);
    memset(all, 0xff, (words + 1) * sizeof *all);
    for (Py_ssize_t c = 0; c < ncls; c++)
        cls[c].rare = all;
    uint64_t *cur = sets + words, *next = sets + 4 * words;
    /* the nonzero spans of always and of cur */
    Py_ssize_t alo = words, ahi = -1, a = words, b = -1;
    set_bits(every, ITEMS(p, ALWAYS), nalways, &alo, &ahi);
    set_bits(cur, init, ninit, &a, &b);
    /* A cycle's work is nalways plus the lengths of the rows of the states
       active before it, on its byte's class.  The step adds them from the
       second cycle on; the first cycle's are added here, over init as it
       is, duplicates and all. */
    w.work = (unsigned long long)nalways * len;
    if (len > 0 && data[0] < ncls)
        for (Py_ssize_t i = 0; i < ninit; i++) {
            const int32_t *row = off + init[i] * ncls + data[0];
            w.work += row[1] - row[0];
        }
    for (Py_ssize_t t = 0; t < len; t++) {
        unsigned char c = data[t];
        /* next is zero here; lo..hi bounds its nonzero words */
        Py_ssize_t lo = alo, hi = ahi;
        for (Py_ssize_t i = alo; i <= ahi; i++)
            next[i] = every[i];
        if (c < ncls && a <= b) {
            Class *x = &cls[c];
            for (Py_ssize_t m = 0; m < x->nmasks; m++) {
                int32_t k = x->shift[m], r = k & 63;
                Py_ssize_t q = (k - r) / 64;
                const uint64_t *mask = x->mask + 1 + m * words;
                uint64_t *to = next + q;
                lo = a + q < lo ? a + q : lo;
                hi = b + q + 1 > hi ? b + q + 1 : hi;
                /* word i of to takes the bits of cur's words i and i - 1
                   that move into it; a shift by 64 bits is undefined */
                if (r == 0)
                    for (Py_ssize_t i = a; i <= b; i++)
                        to[i] |= cur[i] & mask[i];
                else
                    for (Py_ssize_t i = a; i <= b + 1; i++)
                        to[i] |= (cur[i] & mask[i]) << r
                                 | (cur[i - 1] & mask[i - 1]) >> (64 - r);
            }
            /* the active rare states step through their rows, masked
               moves and all */
            Py_ssize_t walked = 0;
            for (Py_ssize_t i = a; i <= b; i++)
                for (uint64_t e = cur[i] & x->rare[i]; e; e &= e - 1) {
                    const int32_t *row = off + (i * 64 + __builtin_ctzll(e))
                                               * ncls + c;
                    set_bits(next, succ + row[0], row[1] - row[0], &lo, &hi);
                    walked += row[1] - row[0];
                }
            /* until the class is built, every active state is rare, and
               the rows walked are the cycle's work */
            if (t > 0 && mode != SETS)
                w.work += x->plane ? row_work(x, cur, a, b, words)
                                   : (unsigned long long)walked;
            x->walked += walked;
            if (x->mask == NULL && x->walked >= price
                && build(p, c, words, x) < 0)
                goto done;
        }
        lo = lo < 0 ? 0 : lo;
        hi = hi >= words ? words - 1 : hi;
        trim(next, &lo, &hi);
        PyObject *item = mode == SETS ? record_set(&w, next, lo, hi)
                         : rules ? record_rules(&w, next, lo, hi, t + 1)
                         /* an empty set adds no reports or activations */
                         : lo > hi ? PyLong_FromSsize_t(0)
                         : record_summary(p, &w, next, lo, hi, t);
        if (item == NULL)
            goto done;
        PyList_SET_ITEM(out, t, item);
        if (a <= b)
            memset(cur + a, 0, (b - a + 1) * sizeof *cur);
        uint64_t *swap = cur;
        cur = next;
        next = swap;
        a = lo;
        b = hi;
    }
    if (mode == SETS)
        result = Py_NewRef(out);
    else if (rules)
        result = Py_BuildValue("(OK)", out, w.work);
    else if ((flush(&w), activation = int_list(w.activation, n)) != NULL)
        result = Py_BuildValue("((OOO)K)", out, activation, w.reports, w.work);
done:
    for (Py_ssize_t c = 0; cls != NULL && c < ncls; c++) {
        PyMem_Free(cls[c].shift);
        PyMem_Free(cls[c].mask);
    }
    PyMem_Free(cls);
    PyMem_Free(sets);
    PyMem_Free(every);
    PyMem_Free(all);
    PyMem_Free(w.seen);
    PyMem_Free(w.moving);
    PyMem_Free(w.activation);
    PyMem_Free(w.reporting);
    PyMem_Free(w.tally);
    PyMem_Free(w.pieces);
    PyMem_Free(w.first);
    PyMem_Free(w.moves);
    Py_XDECREF(w.ints);
    Py_XDECREF(w.reports);
    Py_XDECREF(activation);
    Py_XDECREF(out);
    return result;
}

/* The subsets a walk has found: each is the span of its bitset from its
   first to its last nonzero 64-bit word, stored end to end in pool, and
   slots is an open-addressing hash of the spans. */
typedef struct {
    Py_ssize_t start;  /* its first word in pool */
    int32_t lo, len;   /* its first word index and its word count */
    uint64_t hash;     /* span_hash of the span */
} Span;

typedef struct {
    Py_ssize_t count, room;  /* subsets found, and allocated */
    Span *spans;
    uint64_t *pool;
    Py_ssize_t used, size;   /* words in pool, and allocated */
    int32_t *slots;          /* per slot: a subset id + 1, or 0 for none */
    Py_ssize_t mask;         /* slot count - 1; the count is a power of 2 */
} Found;

static uint64_t
span_hash(Py_ssize_t lo, const uint64_t *words, Py_ssize_t len)
{
    uint64_t h = (uint64_t)lo * 0x9E3779B97F4A7C15u;

    for (Py_ssize_t k = 0; k < len; k++) {
        h = (h ^ words[k]) * 0xBF58476D1CE4E5B9u;
        h ^= h >> 31;
    }
    return h;
}

/* The slot that holds the span, or the empty slot where it would go. */
static Py_ssize_t
lookup(const Found *f, Py_ssize_t lo, const uint64_t *words, Py_ssize_t len,
       uint64_t h)
{
    for (Py_ssize_t i = h & f->mask;; i = (i + 1) & f->mask) {
        if (f->slots[i] == 0)
            return i;
        const Span *x = &f->spans[f->slots[i] - 1];
        if (x->hash == h && x->lo == lo && x->len == len
            && memcmp(f->pool + x->start, words, len * sizeof *words) == 0)
            return i;
    }
}

static void *
grow(void *items, Py_ssize_t *room, Py_ssize_t need, size_t itemsize)
{
    if (items != NULL && need <= *room)
        return items;
    Py_ssize_t more = need > 2 * *room ? need : 2 * *room;
    void *moved = PyMem_Realloc(items, more * itemsize);
    if (moved != NULL)
        *room = more;
    return moved;
}

/* Room for extra more subsets of up to words words each, with the hash
   at most half full.  gcc 12 -O3 emits reserve, load, refine and subsets
   in that order, so a 64-byte line under reserve keeps the other three
   where they are on their lines, whatever is edited elsewhere in this
   file.  Off those places, check's loops, inlined into load, ran about
   30 % slower at 32 bytes past a line, and the report workloads' walks
   2-3 % slower with all three on a line. */
__attribute__((aligned(64))) static int
reserve(Found *f, Py_ssize_t extra, Py_ssize_t words)
{
    Py_ssize_t need = f->count + extra;
    Span *spans = grow(f->spans, &f->room, need, sizeof *spans);
    if (spans == NULL)
        return -1;
    f->spans = spans;
    uint64_t *pool = grow(f->pool, &f->size, f->used + extra * words,
                          sizeof *pool);
    if (pool == NULL)
        return -1;
    f->pool = pool;
    if (2 * need <= f->mask + 1)
        return 0;
    Py_ssize_t nslots = f->mask + 1;
    while (2 * need > nslots)
        nslots *= 2;
    int32_t *slots = PyMem_Calloc(nslots, sizeof *slots);
    if (slots == NULL)
        return -1;
    PyMem_Free(f->slots);
    f->slots = slots;
    f->mask = nslots - 1;
    for (Py_ssize_t id = 0; id < f->count; id++) {
        Py_ssize_t i = f->spans[id].hash & f->mask;
        while (slots[i])
            i = (i + 1) & f->mask;
        slots[i] = (int32_t)id + 1;
    }
    return 0;
}

/* Append the span as a new subset; reserve made room for it. */
static int32_t
add(Found *f, Py_ssize_t lo, const uint64_t *words, Py_ssize_t len,
    uint64_t h)
{
    Py_ssize_t id = f->count++;

    f->spans[id] = (Span){f->used, (int32_t)lo, (int32_t)len, h};
    memcpy(f->pool + f->used, words, len * sizeof *words);
    f->used += len;
    return (int32_t)id;
}

/* The first count items as an array('i'). */
static PyObject *
int_array(const int32_t *items, Py_ssize_t count)
{
    PyObject *module = PyImport_ImportModule("array");
    PyObject *array = module ? PyObject_CallMethod(module, "array", "s", "i")
                             : NULL;
    PyObject *view = PyMemoryView_FromMemory((char *)items,
                                             count * sizeof *items,
                                             PyBUF_READ);
    PyObject *done = array && view ? PyObject_CallMethod(array, "frombytes",
                                                         "O", view)
                                   : NULL;

    Py_XDECREF(module);
    Py_XDECREF(view);
    if (done == NULL)
        Py_CLEAR(array);
    Py_XDECREF(done);
    return array;
}

/* The breadth-first subset construction of a checked program, numbered
   as falab._simkernel_py.subsets numbers it, or None when it finds more
   than limit subsets. */
static PyObject *
walk(const Program *p, Py_ssize_t limit)
{
    const int32_t *off = ITEMS(p, OFF), *succ = ITEMS(p, SUCC);
    const int32_t *report = ITEMS(p, REPORT);
    Py_ssize_t n = p->n, ncls = p->ncls, words = (n + 63) / 64;
    Py_ssize_t nalways = p->len[ALWAYS], room = 0, label_room = 0;
    Found f = {.mask = 15};
    /* per class, and for the first subset: a bitset and its nonzero span
       [lo, hi] */
    uint64_t *step = PyMem_Calloc((ncls + 1) * words + 1, sizeof *step);
    Py_ssize_t *lo = PyMem_Malloc((ncls + 1) * sizeof *lo);
    Py_ssize_t *hi = PyMem_Malloc((ncls + 1) * sizeof *hi);
    Py_ssize_t *fresh = PyMem_Malloc((ncls + 1) * sizeof *fresh);
    Py_ssize_t *seen = PyMem_Calloc(n + 1, sizeof *seen);  /* label stamps */
    int32_t *table = NULL, *labels = NULL;
    PyObject *counts = NULL, *array = NULL, *result = NULL;

    f.slots = PyMem_Calloc(f.mask + 1, sizeof *f.slots);
    if (!step || !lo || !hi || !fresh || !seen || !f.slots
        || reserve(&f, 1, words) < 0) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t c = 0; c <= ncls; c++) {
        lo[c] = words;
        hi[c] = -1;
    }
    /* the first subset, in the spare class ncls; never looked up when
       empty, as an empty step is no move */
    uint64_t *first = step + ncls * words;
    set_bits(first, ITEMS(p, INIT), p->len[INIT], &lo[ncls], &hi[ncls]);
    Py_ssize_t len0 = hi[ncls] - lo[ncls] + 1;
    if (len0 > 0) {
        uint64_t h = span_hash(lo[ncls], first + lo[ncls], len0);
        f.slots[lookup(&f, lo[ncls], first + lo[ncls], len0, h)] =
            add(&f, lo[ncls], first + lo[ncls], len0, h) + 1;
        memset(first + lo[ncls], 0, len0 * sizeof *first);
    }
    else
        add(&f, 0, first, 0, span_hash(0, first, 0));
    for (Py_ssize_t r = 0; r < f.count; r++) {  /* f grows: BFS */
        if (reserve(&f, ncls, words) < 0
            || (table = grow(table, &room, (r + 1) * ncls, sizeof *table))
               == NULL
            || (labels = grow(labels, &label_room, r + 1, sizeof *labels))
               == NULL) {
            PyErr_NoMemory();
            goto done;
        }
        Span from = f.spans[r];
        labels[r] = 0;
        for (Py_ssize_t k = 0; k < from.len; k++)
            for (uint64_t bits = f.pool[from.start + k]; bits;
                 bits &= bits - 1) {
                Py_ssize_t s = (from.lo + k) * 64 + __builtin_ctzll(bits);
                const int32_t *row = off + s * ncls;
                if (report[s] >= 0 && seen[report[s]] != r + 1) {
                    seen[report[s]] = r + 1;
                    labels[r]++;
                }
                for (Py_ssize_t c = 0; c < ncls; c++)
                    set_bits(step + c * words, succ + row[c],
                             row[c + 1] - row[c], &lo[c], &hi[c]);
            }
        if (nalways > 0)
            for (Py_ssize_t c = 0; c < ncls; c++)
                set_bits(step + c * words, ITEMS(p, ALWAYS), nalways,
                         &lo[c], &hi[c]);
        /* Scanning the classes downwards meets the new subsets in order
           of their highest class, descending; they are numbered upwards
           once the row is done. */
        int32_t *out = table + r * ncls;
        Py_ssize_t base = f.count, nfresh = 0;
        for (Py_ssize_t c = ncls - 1; c >= 0; c--) {
            Py_ssize_t len = hi[c] - lo[c] + 1;
            if (len <= 0) {
                out[c] = -1;
                continue;
            }
            uint64_t *bits = step + c * words + lo[c];
            uint64_t h = span_hash(lo[c], bits, len);
            Py_ssize_t slot = lookup(&f, lo[c], bits, len, h);
            if (f.slots[slot] == 0) {
                f.slots[slot] = add(&f, lo[c], bits, len, h) + 1;
                fresh[nfresh++] = slot;
            }
            out[c] = f.slots[slot] - 1;
            memset(bits, 0, len * sizeof *bits);
            lo[c] = words;
            hi[c] = -1;
        }
        if (base + nfresh > limit) {
            result = Py_NewRef(Py_None);
            goto done;
        }
        /* the k-th new subset takes id base + nfresh - 1 - k */
        for (Py_ssize_t c = 0; c < ncls; c++)
            if (out[c] >= base)
                out[c] = (int32_t)(2 * base + nfresh - 1 - out[c]);
        for (Py_ssize_t k = 0; k < nfresh; k++)
            f.slots[fresh[k]] = (int32_t)(base + nfresh - k);
        for (Py_ssize_t i = base, j = base + nfresh - 1; i < j; i++, j--) {
            Span swap = f.spans[i];
            f.spans[i] = f.spans[j];
            f.spans[j] = swap;
        }
    }
    if ((counts = int_array(labels, f.count)) != NULL
        && (array = int_array(table, f.count * ncls)) != NULL)
        result = PyTuple_Pack(2, counts, array);
done:
    PyMem_Free(step);
    PyMem_Free(lo);
    PyMem_Free(hi);
    PyMem_Free(fresh);
    PyMem_Free(seen);
    PyMem_Free(table);
    PyMem_Free(labels);
    PyMem_Free(f.spans);
    PyMem_Free(f.pool);
    PyMem_Free(f.slots);
    Py_XDECREF(counts);
    Py_XDECREF(array);
    return result;
}

/* Hopcroft's refinement of the complete DFA that a checked program
   reverses, as flip returns it, numbered as falab._simkernel_py.refine
   numbers it: the states that move to t on atom i are the program's
   successors of t on i, and init holds the accepting states.  The
   partition is refined in place (Valmari & Lehtinen, STACS 2008): elems
   holds the states with each block a span [first, end) of it, a sweep
   moves the states it marks to the front of their block, up to mid, and
   a split makes the smaller part a new block, so no split allocates. */
static PyObject *
partition(const Program *p)
{
    const int32_t *off = ITEMS(p, OFF), *succ = ITEMS(p, SUCC);
    const int32_t *init = ITEMS(p, INIT);
    Py_ssize_t total = p->n, natoms = p->ncls;
    int32_t *scratch = PyMem_Malloc(9 * total * sizeof *scratch);

    if (!scratch)
        return PyErr_NoMemory();
    /* per state: its place in elems and its block; per block: its span
       and marked prefix; the worklist, the blocks a sweep marked, and the
       splitter's states */
    int32_t *elems = scratch, *loc = elems + total, *block_of = loc + total;
    int32_t *first = block_of + total, *mid = first + total;
    int32_t *end = mid + total, *waiting = end + total;
    int32_t *touched = waiting + total, *splitter = touched + total;

    /* block 0 holds the accepting states, when there are any, and the
       next block the rest, when there are any */
    for (Py_ssize_t s = 0; s < total; s++)
        block_of[s] = 1;
    for (Py_ssize_t k = 0; k < p->len[INIT]; k++)
        block_of[init[k]] = 0;
    Py_ssize_t nacc = 0, nblocks = 0, nwaiting = 0;
    for (Py_ssize_t s = 0; s < total; s++)
        nacc += !block_of[s];
    for (Py_ssize_t s = 0, acc = 0, rest = nacc; s < total; s++) {
        Py_ssize_t at = block_of[s] ? rest++ : acc++;
        elems[at] = (int32_t)s;
        loc[s] = (int32_t)at;
        block_of[s] = block_of[s] && nacc > 0;
    }
    if (nacc > 0) {
        first[0] = mid[0] = 0;
        end[nblocks++] = (int32_t)nacc;
    }
    if (nacc < total) {
        first[nblocks] = mid[nblocks] = (int32_t)nacc;
        end[nblocks++] = (int32_t)total;
    }
    /* the DFA is complete, so one part of the first split suffices as a
       splitter; one block splits nothing */
    if (nblocks == 2)
        waiting[nwaiting++] = nacc <= total - nacc ? 0 : 1;
    while (nwaiting > 0) {
        int32_t b = waiting[--nwaiting];
        Py_ssize_t size = end[b] - first[b];
        /* sweeps reorder elems, the splitter's span included */
        memcpy(splitter, elems + first[b], size * sizeof *splitter);
        for (Py_ssize_t i = 0; i < natoms; i++) {
            Py_ssize_t ntouched = 0;
            for (Py_ssize_t k = 0; k < size; k++) {
                const int32_t *row = off + splitter[k] * natoms + i;
                for (int32_t j = row[0]; j < row[1]; j++) {
                    int32_t s = succ[j], c = block_of[s];
                    int32_t at = loc[s], m = mid[c];
                    if (at < m)
                        continue;  /* marked already */
                    if (m == first[c])
                        touched[ntouched++] = c;
                    elems[at] = elems[m];
                    loc[elems[at]] = at;
                    elems[m] = s;
                    loc[s] = m;
                    mid[c] = m + 1;
                }
            }
            for (Py_ssize_t k = 0; k < ntouched; k++) {
                int32_t c = touched[k], m = mid[c];
                mid[c] = first[c];
                if (m == end[c])
                    continue;  /* all marked: no split */
                /* The smaller part becomes the new block and waits; when c
                   was waiting, both parts wait now. */
                int32_t nb = (int32_t)nblocks++;
                if (m - first[c] <= end[c] - m) {
                    first[nb] = first[c];
                    end[nb] = m;
                    first[c] = mid[c] = m;
                }
                else {
                    first[nb] = m;
                    end[nb] = end[c];
                    end[c] = m;
                }
                mid[nb] = first[nb];
                for (int32_t x = first[nb]; x < end[nb]; x++)
                    block_of[elems[x]] = nb;
                waiting[nwaiting++] = nb;
            }
        }
    }
    /* renumber the blocks in order of their smallest member */
    int32_t *canonical = touched, *out = splitter, next = 0;
    for (Py_ssize_t b = 0; b < nblocks; b++)
        canonical[b] = -1;
    for (Py_ssize_t s = 0; s < total; s++) {
        if (canonical[block_of[s]] < 0)
            canonical[block_of[s]] = next++;
        out[s] = canonical[block_of[s]];
    }
    PyObject *result = int_array(out, total);
    PyMem_Free(scratch);
    return result;
}

/* Acquire and check the program's views, and data's and rules' as mode
   needs them; on failure the views acquired so far stay held. */
static int
load(Program *p, PyObject *program, PyObject *data, PyObject *rules,
     Mode mode)
{
    if (!PyTuple_Check(program) || PyTuple_GET_SIZE(program) != 7) {
        PyErr_SetString(PyExc_TypeError, "program must be a (n, ncls, off, "
                        "succ, init, always, report) tuple");
        return -1;
    }
    if (mode == RULES && (!PyTuple_Check(rules)
                          || PyTuple_GET_SIZE(rules) != 2)) {
        PyErr_SetString(PyExc_TypeError, "rules must be a (rule_of, "
                        "raw_start) pair");
        return -1;
    }
    p->n = PyLong_AsSsize_t(PyTuple_GET_ITEM(program, 0));
    p->ncls = PyLong_AsSsize_t(PyTuple_GET_ITEM(program, 1));
    if (p->n < 0 || p->n >= INT32_MAX || p->ncls < 0 || p->ncls > 256) {
        PyErr_Clear();  /* a non-int or an overflow is reported as below */
        PyErr_Format(PyExc_ValueError, "program n is %R and ncls %R; they "
                     "must be ints in 0..%d and 0..256",
                     PyTuple_GET_ITEM(program, 0),
                     PyTuple_GET_ITEM(program, 1), INT32_MAX - 1);
        return -1;
    }
    int last = mode == WALK ? REPORT : mode == RULES ? RAW_START : DATA;
    for (int i = OFF; i <= last; i++)
        if (acquire(p, i, i <= REPORT ? PyTuple_GET_ITEM(program, i + 2)
                          : i == DATA ? data
                          : PyTuple_GET_ITEM(rules, i - RULE_OF)) < 0)
            return -1;
    return check(p);
}

static void
release(Program *p)
{
    while (p->held > 0)  /* every view, on every path */
        PyBuffer_Release(&p->views[--p->held]);
}

/* Check the arguments, scan in the given mode and release every view.
   The scan's loops are inlined here, but for those of record_summary and
   row_work, which the loader picks per CPU (POPCOUNT_CLONES).  An earlier
   step, with a branch on each successor, ran 9 % slower on
   levenshtein-scan at 48 bytes past a 64-byte line; the bit-parallel
   step has not been timed off a line.  Aligning the function keeps edits
   elsewhere in this file from moving it off a line. */
__attribute__((aligned(64))) static PyObject *
run(PyObject *program, PyObject *data, PyObject *rules, Mode mode)
{
    Program p = {0};
    PyObject *result = load(&p, program, data, rules, mode) == 0
                       ? scan(&p, mode) : NULL;

    release(&p);
    return result;
}

static PyObject *
step_stream(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"program", "data", "rules", NULL};
    PyObject *program, *data, *rules = Py_None;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO|O:step_stream", kwlist,
                                     &program, &data, &rules))
        return NULL;
    return run(program, data, rules, rules == Py_None ? SUMMARY : RULES);
}

static PyObject *
active_sets(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"program", "data", NULL};
    PyObject *program, *data;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:active_sets", kwlist,
                                     &program, &data))
        return NULL;
    return run(program, data, NULL, SETS);
}

static PyObject *
subsets(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"program", "cap", NULL};
    PyObject *program, *cap, *result = NULL;
    Program p = {0};

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO!:subsets", kwlist,
                                     &program, &PyLong_Type, &cap))
        return NULL;
    /* a cap beyond Py_ssize_t bounds nothing a walk can reach */
    int overflow;
    long long limit = PyLong_AsLongLongAndOverflow(cap, &overflow);
    if (overflow > 0 || limit > PY_SSIZE_T_MAX)
        limit = PY_SSIZE_T_MAX;
    if (overflow < 0 || limit < 1) {
        PyErr_Format(PyExc_ValueError, "determinization cap must be at "
                     "least 1 (got %R)", cap);
        return NULL;
    }
    if (load(&p, program, NULL, NULL, WALK) == 0)
        result = walk(&p, (Py_ssize_t)limit);
    release(&p);
    return result;
}

static PyObject *
refine(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"program", NULL};
    PyObject *program, *result = NULL;
    Program p = {0};

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O:refine", kwlist,
                                     &program))
        return NULL;
    if (load(&p, program, NULL, NULL, WALK) == 0)
        result = partition(&p);
    release(&p);
    return result;
}

/* The program of a dense table of n states over natoms atoms, completed
   with the dead state n, with every move reversed, as
   falab._simkernel_py.flip builds it, after the checks that read the
   table.  off and succ are the inverse table by counting sort: the states
   that move to t on atom i are succ[off[t * natoms + i]..off[t * natoms +
   i + 1]), ascending. */
static PyObject *
reversal(Py_ssize_t natoms, const int32_t *labels, Py_ssize_t n,
         const int32_t *table, Py_ssize_t len)
{
    Py_ssize_t total = n + 1, rows = total * natoms, k = 0;
    int32_t *off = NULL, *succ = NULL, *init = NULL;
    PyObject *arrays[5] = {NULL}, *result = NULL;

    if (n >= INT32_MAX) {
        PyErr_Format(PyExc_ValueError, "labels has %zd items; at most %d "
                     "states fit", n, INT32_MAX - 1);
        return NULL;
    }
    if (len != n * natoms) {
        PyErr_Format(PyExc_ValueError, "table must have len(labels) * "
                     "natoms = %zd items, not %zd", n * natoms, len);
        return NULL;
    }
    while (k < len && table[k] >= -1 && table[k] < n)
        k++;
    if (k < len) {
        PyErr_Format(PyExc_ValueError, "table[%zd] is %d, outside -1..%zd",
                     k, (int)table[k], n - 1);
        return NULL;
    }
    if (n == 0) {
        PyErr_SetString(PyExc_IndexError, "labels is empty: the table has "
                        "no start state to report");
        return NULL;
    }
    if (rows >= INT32_MAX) {
        PyErr_Format(PyExc_ValueError, "the completed table has %zd moves; "
                     "at most %d fit the program's offsets", rows,
                     INT32_MAX - 1);
        return NULL;
    }
    off = PyMem_Calloc(rows + 1, sizeof *off);
    succ = PyMem_Malloc((rows ? rows : 1) * sizeof *succ);
    init = PyMem_Malloc((n + total) * sizeof *init);  /* then report */
    if (!off || !succ || !init) {
        PyErr_NoMemory();
        goto done;
    }
#define TARGET(s, i) ((s) == n || table[(s) * natoms + (i)] < 0 \
                      ? n : table[(s) * natoms + (i)])
    for (Py_ssize_t s = 0; s < total; s++)  /* the dead state loops */
        for (Py_ssize_t i = 0; i < natoms; i++)
            off[TARGET(s, i) * natoms + i]++;
    for (Py_ssize_t r = 1; r < rows; r++)
        off[r] += off[r - 1];
    off[rows] = (int32_t)rows;
    for (Py_ssize_t s = n; s >= 0; s--)
        for (Py_ssize_t i = 0; i < natoms; i++)
            succ[--off[TARGET(s, i) * natoms + i]] = (int32_t)s;
#undef TARGET
    Py_ssize_t ninit = 0;
    for (Py_ssize_t s = 0; s < n; s++)
        if (labels[s] > 0)
            init[ninit++] = (int32_t)s;
    int32_t *report = init + n;
    report[0] = 0;
    for (Py_ssize_t s = 1; s < total; s++)
        report[s] = -1;
    if ((arrays[0] = int_array(off, rows + 1)) != NULL
        && (arrays[1] = int_array(succ, rows)) != NULL
        && (arrays[2] = int_array(init, ninit)) != NULL
        && (arrays[3] = int_array(init, 0)) != NULL
        && (arrays[4] = int_array(report, total)) != NULL)
        result = Py_BuildValue("(nnOOOOO)", total, natoms, arrays[0],
                               arrays[1], arrays[2], arrays[3], arrays[4]);
done:
    PyMem_Free(off);
    PyMem_Free(succ);
    PyMem_Free(init);
    for (int j = 0; j < 5; j++)
        Py_XDECREF(arrays[j]);
    return result;
}

/* Parse (natoms, labels, table): natoms an int in 0..256, labels and
   table buffers of 'i' items, viewed while reversal checks and reverses
   them. */
static PyObject *
flip(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"natoms", "labels", "table", NULL};
    PyObject *atoms, *labels, *table, *result = NULL;
    Py_buffer labels_view, table_view;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:flip", kwlist, &atoms,
                                     &labels, &table))
        return NULL;
    Py_ssize_t natoms = PyLong_AsSsize_t(atoms);
    if (natoms < 0 || natoms > 256) {
        PyErr_Clear();  /* a non-int or an overflow is reported as below */
        PyErr_Format(PyExc_ValueError, "natoms is %R; it must be an int in "
                     "0..256", atoms);
        return NULL;
    }
    Py_ssize_t n = get_items(&labels_view, labels, "labels", "i");
    if (n < 0)
        return NULL;
    Py_ssize_t len = get_items(&table_view, table, "table", "i");
    if (len >= 0) {
        result = reversal(natoms, labels_view.buf, n, table_view.buf, len);
        PyBuffer_Release(&table_view);
    }
    PyBuffer_Release(&labels_view);
    return result;
}

static PyMethodDef methods[] = {
    {"step_stream", (PyCFunction)(void (*)(void))step_stream,
     METH_VARARGS | METH_KEYWORDS,
     "step_stream(program, data, rules=None)\n--\n\n"
     "Return ((per_cycle_count, activation, reports), operation count);\n"
     "with rules, per-cycle (active_rules, moving_rules) pairs instead."},
    {"active_sets", (PyCFunction)(void (*)(void))active_sets,
     METH_VARARGS | METH_KEYWORDS,
     "active_sets(program, data)\n--\n\n"
     "Return the per-cycle active frozensets."},
    {"subsets", (PyCFunction)(void (*)(void))subsets,
     METH_VARARGS | METH_KEYWORDS,
     "subsets(program, cap)\n--\n\n"
     "Return (labels, table) of the program's subset construction, or\n"
     "None when it would find more than cap subsets."},
    {"refine", (PyCFunction)(void (*)(void))refine,
     METH_VARARGS | METH_KEYWORDS,
     "refine(program)\n--\n\n"
     "Return the canonically numbered block of each state of the\n"
     "Hopcroft refinement of the DFA that the flipped program reverses."},
    {"flip", (PyCFunction)(void (*)(void))flip,
     METH_VARARGS | METH_KEYWORDS,
     "flip(natoms, labels, table)\n--\n\n"
     "Return the program of the dense table, completed with a dead state,\n"
     "with every move reversed, started from its accepting states and\n"
     "reporting at state 0."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "falab._simkernel",
    .m_doc = "Compiled scan kernel, subset walk, refinement and flip; see "
             "falab._simkernel_py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__simkernel(void)
{
    PyObject *m = PyModule_Create(&module);

    if (m != NULL && PyModule_AddIntConstant(m, "FORMAT", FORMAT) < 0)
        Py_CLEAR(m);
    return m;
}
