/* Compiled byte-stream stepping kernel: the inner loop of falab.Simulator.

   step_stream(program, data, rules=None) and active_sets(program, data)
   keep the contracts of falab._simkernel_py, which is their
   specification: the same flat program (n, ncls, off, succ, init, always,
   report), the same ((per_cycle_count, activation, reports), work)
   summary or, with rules = (rule_of, raw_start), the same
   (active_rules, moving_rules) pairs, the same per-cycle frozensets from
   active_sets, and the same operation count.  The arrays are read in
   place through the buffer protocol, never copied.  One pass checks them
   all before the scan: an argument that is not a buffer, or whose items
   are not 'i' (raw_start: 'B'), raises TypeError; a wrong length,
   offsets that decrease or do not end at len(succ), a state outside
   0..n-1 or a report item outside -1..n-1 raises ValueError naming the
   array and index.  FORMAT numbers this program layout; falab.simulate
   uses the module only when it equals falab._simkernel_py.FORMAT. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>

#define FORMAT 3

/* Buffer views, acquired in this order (RULE_OF and RAW_START only with
   rules), with their names and item formats; data may be any bytes-like
   object. */
enum { DATA, OFF, SUCC, INIT, ALWAYS, REPORT, RULE_OF, RAW_START, NVIEWS };
static const char *const names[NVIEWS] = {
    "data", "off", "succ", "init", "always", "report", "rule_of",
    "raw_start"};
static const char *const formats[NVIEWS] = {
    NULL, "i", "i", "i", "i", "i", "i", "B"};

/* What a scan records per cycle. */
typedef enum { SETS, SUMMARY, RULES } Mode;

typedef struct {
    Py_ssize_t n, ncls;
    Py_buffer views[NVIEWS];
    Py_ssize_t len[NVIEWS];  /* items per view */
    int held;                /* views[0..held-1] are acquired */
} Program;

#define ITEMS(p, i) ((const int32_t *)(p)->views[i].buf)

/* Acquire obj as view i. */
static int
acquire(Program *p, int i, PyObject *obj)
{
    Py_buffer *view = &p->views[i];
    const char *fmt = formats[i];

    if (!PyObject_CheckBuffer(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be a %s, not '%.100s'",
                     names[i], fmt ? "buffer" : "bytes-like object",
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    if (PyObject_GetBuffer(obj, view, fmt ? PyBUF_FORMAT | PyBUF_C_CONTIGUOUS
                                          : PyBUF_SIMPLE) < 0)
        return -1;
    p->held = i + 1;
    if (fmt && strcmp(view->format, fmt) != 0) {
        PyErr_Format(PyExc_TypeError, "%s must hold '%s' items, not '%s'",
                     names[i], fmt, view->format);
        return -1;
    }
    p->len[i] = fmt ? view->len / view->itemsize : view->len;
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

/* Per-scan scratch: per-state or per-rule arrays of n + 1 items. */
typedef struct {
    Py_ssize_t *mark;        /* successor stamps */
    Py_ssize_t *seen;        /* per-rule or per-label stamps */
    Py_ssize_t *moving;      /* per-rule stamps of moving rules */
    Py_ssize_t *activation;  /* SUMMARY: cycles each state is active */
    int32_t *best;           /* SUMMARY: smallest active state per label */
    int32_t *hits;           /* SUMMARY: labels hit in this cycle */
    PyObject *ints;          /* SETS: the state ids as Python ints */
    PyObject *reports;       /* SUMMARY: the (cycle, state) list */
} Scratch;

static int
compare_labels(const void *a, const void *b)
{
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

/* One cycle's record: the active set, its (active, moving) rule counts,
   or its active count, after adding its reports and activations to w.
   stamp is unique to the cycle t. */
static PyObject *
record(const Program *p, Mode mode, Scratch *w, const int32_t *active,
       Py_ssize_t count, Py_ssize_t t, Py_ssize_t stamp)
{
    if (mode == SETS) {
        PyObject *set = PyFrozenSet_New(NULL);
        for (Py_ssize_t i = 0; set != NULL && i < count; i++)
            if (PySet_Add(set, PyList_GET_ITEM(w->ints, active[i])) < 0)
                Py_CLEAR(set);
        return set;
    }
    if (mode == RULES) {
        const int32_t *rule = ITEMS(p, RULE_OF);
        const unsigned char *raw_start = p->views[RAW_START].buf;
        Py_ssize_t rules = 0, moved = 0;
        for (Py_ssize_t i = 0; i < count; i++) {
            int32_t s = active[i], r = rule[s];
            if (w->seen[r] != stamp) {
                w->seen[r] = stamp;
                rules++;
            }
            if (!raw_start[s] && w->moving[r] != stamp) {
                w->moving[r] = stamp;
                moved++;
            }
        }
        return Py_BuildValue("(nn)", rules, moved);
    }
    const int32_t *report = ITEMS(p, REPORT);
    Py_ssize_t nhits = 0;
    for (Py_ssize_t i = 0; i < count; i++) {
        int32_t s = active[i], k = report[s];
        w->activation[s]++;
        if (k < 0)
            continue;
        if (w->seen[k] != stamp) {
            w->seen[k] = stamp;
            w->best[k] = s;
            w->hits[nhits++] = k;
        }
        else if (s < w->best[k])
            w->best[k] = s;
    }
    qsort(w->hits, nhits, sizeof *w->hits, compare_labels);
    for (Py_ssize_t i = 0; i < nhits; i++) {
        PyObject *pair = Py_BuildValue("(ni)", t, (int)w->best[w->hits[i]]);
        if (pair == NULL || PyList_Append(w->reports, pair) < 0) {
            Py_XDECREF(pair);
            return NULL;
        }
        Py_DECREF(pair);
    }
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

static PyObject *
scan(const Program *p, Mode mode)
{
    const unsigned char *data = p->views[DATA].buf;
    const int32_t *off = ITEMS(p, OFF), *succ = ITEMS(p, SUCC);
    const int32_t *always = ITEMS(p, ALWAYS);
    Py_ssize_t len = p->len[DATA], ninit = p->len[INIT];
    Py_ssize_t nalways = p->len[ALWAYS], n = p->n, ncls = p->ncls;
    Py_ssize_t cap = (ninit > n ? ninit : n) + 1, ncur = ninit;
    int32_t *cur = PyMem_Malloc(cap * sizeof *cur);
    int32_t *next = PyMem_Malloc(cap * sizeof *next);
    Scratch w = {
        .mark = PyMem_Calloc(n + 1, sizeof *w.mark),
        .seen = PyMem_Calloc(n + 1, sizeof *w.seen),
        .moving = PyMem_Calloc(n + 1, sizeof *w.moving),
        .activation = PyMem_Calloc(n + 1, sizeof *w.activation),
        .best = PyMem_Calloc(n + 1, sizeof *w.best),
        .hits = PyMem_Calloc(n + 1, sizeof *w.hits),
        .ints = mode == SETS ? int_list(NULL, n) : NULL,
        .reports = mode == SUMMARY ? PyList_New(0) : NULL,
    };
    PyObject *out = PyList_New(len), *activation = NULL, *result = NULL;
    unsigned long long work = 0;

    if (out == NULL || (mode == SETS && w.ints == NULL)
        || (mode == SUMMARY && w.reports == NULL))
        goto done;
    if (!cur || !next || !w.mark || !w.seen || !w.moving || !w.activation
        || !w.best || !w.hits) {
        PyErr_NoMemory();
        goto done;
    }
    memcpy(cur, ITEMS(p, INIT), ninit * sizeof *cur);
    for (Py_ssize_t t = 0; t < len; t++) {
        Py_ssize_t stamp = t + 1, nnext = 0;
        unsigned char c = data[t];
        if (c < ncls) {
            for (Py_ssize_t i = 0; i < ncur; i++) {
                const int32_t *row = off + cur[i] * ncls + c;
                work += row[1] - row[0];
                for (int32_t j = row[0]; j < row[1]; j++) {
                    int32_t d = succ[j];
                    if (w.mark[d] != stamp) {
                        w.mark[d] = stamp;
                        next[nnext++] = d;
                    }
                }
            }
        }
        work += nalways;
        for (Py_ssize_t i = 0; i < nalways; i++) {
            int32_t d = always[i];
            if (w.mark[d] != stamp) {
                w.mark[d] = stamp;
                next[nnext++] = d;
            }
        }
        PyObject *item = record(p, mode, &w, next, nnext, t, stamp);
        if (item == NULL)
            goto done;
        PyList_SET_ITEM(out, t, item);
        int32_t *swap = cur;
        cur = next;
        next = swap;
        ncur = nnext;
    }
    if (mode == SETS)
        result = Py_NewRef(out);
    else if (mode == RULES)
        result = Py_BuildValue("(OK)", out, work);
    else if ((activation = int_list(w.activation, n)) != NULL)
        result = Py_BuildValue("((OOO)K)", out, activation, w.reports, work);
done:
    PyMem_Free(cur);
    PyMem_Free(next);
    PyMem_Free(w.mark);
    PyMem_Free(w.seen);
    PyMem_Free(w.moving);
    PyMem_Free(w.activation);
    PyMem_Free(w.best);
    PyMem_Free(w.hits);
    Py_XDECREF(w.ints);
    Py_XDECREF(w.reports);
    Py_XDECREF(activation);
    Py_XDECREF(out);
    return result;
}

/* Check the arguments, scan in the given mode and release every view. */
static PyObject *
run(PyObject *program, PyObject *data, PyObject *rules, Mode mode)
{
    PyObject *result = NULL;
    Program p = {0};

    if (!PyTuple_Check(program) || PyTuple_GET_SIZE(program) != 7) {
        PyErr_SetString(PyExc_TypeError, "program must be a (n, ncls, off, "
                        "succ, init, always, report) tuple");
        return NULL;
    }
    if (mode == RULES && (!PyTuple_Check(rules)
                          || PyTuple_GET_SIZE(rules) != 2)) {
        PyErr_SetString(PyExc_TypeError, "rules must be a (rule_of, "
                        "raw_start) pair");
        return NULL;
    }
    p.n = PyLong_AsSsize_t(PyTuple_GET_ITEM(program, 0));
    p.ncls = PyLong_AsSsize_t(PyTuple_GET_ITEM(program, 1));
    if (p.n < 0 || p.n >= INT32_MAX || p.ncls < 0 || p.ncls > 256) {
        PyErr_Clear();  /* a non-int or an overflow is reported as below */
        PyErr_Format(PyExc_ValueError, "program n is %R and ncls %R; they "
                     "must be ints in 0..%d and 0..256",
                     PyTuple_GET_ITEM(program, 0),
                     PyTuple_GET_ITEM(program, 1), INT32_MAX - 1);
        return NULL;
    }
    int last = mode == RULES ? RAW_START : REPORT, ok = 1;
    for (int i = DATA; ok && i <= last; i++)
        ok = acquire(&p, i, i == DATA ? data
                            : i <= REPORT ? PyTuple_GET_ITEM(program, i + 1)
                            : PyTuple_GET_ITEM(rules, i - RULE_OF)) == 0;
    if (ok && check(&p) == 0)
        result = scan(&p, mode);
    while (p.held > 0)  /* every view, on every path */
        PyBuffer_Release(&p.views[--p.held]);
    return result;
}

static PyObject *
step_stream(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"program", "data", "rules", NULL};
    PyObject *program, *data, *rules = Py_None;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO|O:step_stream", kwlist,
                                     &program, &data, &rules))
        return NULL;
    return run(program, data, rules, rules == Py_None ? SUMMARY : RULES);
}

static PyObject *
active_sets(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"program", "data", NULL};
    PyObject *program, *data;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:active_sets", kwlist,
                                     &program, &data))
        return NULL;
    return run(program, data, NULL, SETS);
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
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "falab._simkernel",
    "Compiled byte-stream stepping kernel; see falab._simkernel_py.", -1,
    methods,
};

PyMODINIT_FUNC
PyInit__simkernel(void)
{
    PyObject *m = PyModule_Create(&module);

    if (m != NULL && PyModule_AddIntConstant(m, "FORMAT", FORMAT) < 0)
        Py_CLEAR(m);
    return m;
}
