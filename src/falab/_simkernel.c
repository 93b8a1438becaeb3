/* Compiled byte-stream stepping kernel: the inner loop of falab.Simulator.

   step_stream(program, data, rules=None) keeps the contract of
   falab._simkernel_py.step_stream, which is its specification: the same
   (step, init, always) program triple, the same per-cycle frozensets or,
   with rules, the same (active_rules, moving_rules) pairs, and the same
   operation count.  Each call flattens step into a dense table of
   states x byte classes, sized by the class count (1 + the largest class
   key); input bytes at or above the class count have no successors.  A
   malformed program or rules argument, or data that is not bytes-like,
   raises TypeError or ValueError naming the bad item before the scan. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef struct {
    Py_ssize_t n, ncls, ninit, nalways;
    uint32_t *off;     /* n * ncls + 1 offsets into succ, row s * ncls + c */
    int32_t *succ, *init, *always;
    int32_t *rule;     /* per-state rule index, NULL without rules */
    char *raw_start;   /* per-state raw-start flag, NULL without rules */
} Program;

static void
program_free(Program *p)
{
    PyMem_Free(p->off);
    PyMem_Free(p->succ);
    PyMem_Free(p->init);
    PyMem_Free(p->always);
    PyMem_Free(p->rule);
    PyMem_Free(p->raw_start);
}

/* obj as an index in 0..bound-1; -1 with an exception naming the item,
   whose label is formatted from fmt, a and b only on error. */
static Py_ssize_t
index_of(PyObject *obj, Py_ssize_t bound, const char *fmt, Py_ssize_t a,
         Py_ssize_t b)
{
    char label[80];
    Py_ssize_t v = PyLong_Check(obj) ? PyLong_AsSsize_t(obj) : -1;

    if (v >= 0 && v < bound)
        return v;
    PyErr_Clear();  /* a value too large is reported as out of range */
    PyOS_snprintf(label, sizeof label, fmt, a, b);
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be an int, not '%.100s'",
                     label, Py_TYPE(obj)->tp_name);
        return -1;
    }
    PyErr_Format(PyExc_ValueError, "%s is %R, outside 0..%zd", label, obj,
                 bound - 1);
    return -1;
}

/* The items of iterable obj (init, always or rule_of) as indices in
   0..bound-1, duplicates kept. */
static int32_t *
read_indices(PyObject *obj, Py_ssize_t bound, const char *name,
             Py_ssize_t *count)
{
    char label[64];
    int32_t *out = NULL;
    PyObject *seq;

    PyOS_snprintf(label, sizeof label, "%s must be iterable", name);
    if ((seq = PySequence_Fast(obj, label)) == NULL)
        return NULL;
    *count = PySequence_Fast_GET_SIZE(seq);
    if ((out = PyMem_Malloc((*count + 1) * sizeof *out)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    PyOS_snprintf(label, sizeof label, "an item of %s", name);
    for (Py_ssize_t i = 0; i < *count; i++) {
        Py_ssize_t v = index_of(PySequence_Fast_GET_ITEM(seq, i), bound,
                                label, 0, 0);
        if (v < 0) {
            PyMem_Free(out);
            out = NULL;
            break;
        }
        out[i] = (int32_t)v;
    }
done:
    Py_DECREF(seq);
    return out;
}

/* Flatten step: pass 1 checks rows and keys and finds the class count,
   pass 2 sets the row offsets, pass 3 copies the checked successors. */
static int
read_step(PyObject *step, Program *p)
{
    PyObject *seq, *key, *value;
    Py_ssize_t pos, total = 0, maxkey = -1;
    int ok = -1;

    seq = PySequence_Fast(step, "program step must be a sequence of dicts");
    if (seq == NULL)
        return -1;
    p->n = PySequence_Fast_GET_SIZE(seq);
    if (p->n >= INT32_MAX) {
        PyErr_SetString(PyExc_ValueError, "program has too many states");
        goto done;
    }
    for (Py_ssize_t s = 0; s < p->n; s++) {
        PyObject *row = PySequence_Fast_GET_ITEM(seq, s);
        if (!PyDict_Check(row)) {
            PyErr_Format(PyExc_TypeError, "step[%zd] must be a dict, not "
                         "'%.100s'", s, Py_TYPE(row)->tp_name);
            goto done;
        }
        for (pos = 0; PyDict_Next(row, &pos, &key, &value);) {
            Py_ssize_t c = index_of(key, 256, "a class key of step[%zd]", s,
                                    0);
            if (c < 0)
                goto done;
            if (!PyTuple_Check(value) && !PyList_Check(value)) {
                PyErr_Format(PyExc_TypeError, "step[%zd][%zd] must be a "
                             "tuple of states, not '%.100s'", s, c,
                             Py_TYPE(value)->tp_name);
                goto done;
            }
            maxkey = c > maxkey ? c : maxkey;
            total += PySequence_Fast_GET_SIZE(value);
        }
    }
    if (total >= UINT32_MAX) {
        PyErr_SetString(PyExc_ValueError, "program has too many successors");
        goto done;
    }
    p->ncls = maxkey + 1;
    p->off = PyMem_Calloc(p->n * p->ncls + 1, sizeof *p->off);
    p->succ = PyMem_Malloc((total + 1) * sizeof *p->succ);
    if (p->off == NULL || p->succ == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t s = 0; s < p->n; s++)
        for (pos = 0; PyDict_Next(PySequence_Fast_GET_ITEM(seq, s), &pos,
                                  &key, &value);)
            p->off[s * p->ncls + PyLong_AsSsize_t(key) + 1] =
                (uint32_t)PySequence_Fast_GET_SIZE(value);
    for (Py_ssize_t i = 1; i <= p->n * p->ncls; i++)
        p->off[i] += p->off[i - 1];
    for (Py_ssize_t s = 0; s < p->n; s++) {
        for (pos = 0; PyDict_Next(PySequence_Fast_GET_ITEM(seq, s), &pos,
                                  &key, &value);) {
            Py_ssize_t c = PyLong_AsSsize_t(key);
            int32_t *dst = p->succ + p->off[s * p->ncls + c];
            for (Py_ssize_t j = 0; j < PySequence_Fast_GET_SIZE(value); j++) {
                Py_ssize_t d = index_of(PySequence_Fast_GET_ITEM(value, j),
                                        p->n, "a successor in step[%zd][%zd]",
                                        s, c);
                if (d < 0)
                    goto done;
                dst[j] = (int32_t)d;
            }
        }
    }
    ok = 0;
done:
    Py_DECREF(seq);
    return ok;
}

/* rules = (rule_of, raw_start): a rule index in 0..n-1 and a flag per
   state. */
static int
read_rules(PyObject *rules, Program *p)
{
    static const char pair_error[] = "rules must be a (rule_of, raw_start) "
                                     "pair";
    PyObject *pair, *raw = NULL;
    Py_ssize_t count = 0;
    int ok = -1;

    if ((pair = PySequence_Fast(rules, pair_error)) == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(pair) != 2) {
        PyErr_SetString(PyExc_ValueError, pair_error);
        goto done;
    }
    p->rule = read_indices(PySequence_Fast_GET_ITEM(pair, 0), p->n, "rule_of",
                           &count);
    if (p->rule == NULL)
        goto done;
    raw = PySequence_Fast(PySequence_Fast_GET_ITEM(pair, 1),
                          "raw_start must be iterable");
    if (raw == NULL)
        goto done;
    if (count != p->n || PySequence_Fast_GET_SIZE(raw) != p->n) {
        PyErr_Format(PyExc_ValueError, "rule_of and raw_start must have one "
                     "item per state (%zd), not %zd and %zd", p->n, count,
                     PySequence_Fast_GET_SIZE(raw));
        goto done;
    }
    if ((p->raw_start = PyMem_Malloc(p->n + 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t s = 0; s < p->n; s++) {
        int flag = PyObject_IsTrue(PySequence_Fast_GET_ITEM(raw, s));
        if (flag < 0)
            goto done;
        p->raw_start[s] = (char)flag;
    }
    ok = 0;
done:
    Py_XDECREF(raw);
    Py_DECREF(pair);
    return ok;
}

/* One cycle's record: the active set, or its (active, moving) rule counts.
   seen and moving are per-rule stamps; stamp is unique to the cycle. */
static PyObject *
record(const Program *p, const int32_t *active, Py_ssize_t count,
       PyObject *ints, Py_ssize_t *seen, Py_ssize_t *moving, Py_ssize_t stamp)
{
    if (p->rule == NULL) {
        PyObject *set = PyFrozenSet_New(NULL);
        for (Py_ssize_t i = 0; set != NULL && i < count; i++)
            if (PySet_Add(set, PyList_GET_ITEM(ints, active[i])) < 0)
                Py_CLEAR(set);
        return set;
    }
    Py_ssize_t rules = 0, moved = 0;
    for (Py_ssize_t i = 0; i < count; i++) {
        int32_t s = active[i], r = p->rule[s];
        if (seen[r] != stamp) {
            seen[r] = stamp;
            rules++;
        }
        if (!p->raw_start[s] && moving[r] != stamp) {
            moving[r] = stamp;
            moved++;
        }
    }
    return Py_BuildValue("(nn)", rules, moved);
}

static PyObject *
scan(const Program *p, const unsigned char *data, Py_ssize_t len)
{
    Py_ssize_t cap = (p->ninit > p->n ? p->ninit : p->n) + 1;
    int32_t *cur = PyMem_Malloc(cap * sizeof *cur);
    int32_t *next = PyMem_Malloc(cap * sizeof *next);
    Py_ssize_t *mark = PyMem_Calloc(p->n + 1, sizeof *mark);
    Py_ssize_t *seen = PyMem_Calloc(p->n + 1, sizeof *seen);
    Py_ssize_t *moving = PyMem_Calloc(p->n + 1, sizeof *moving);
    PyObject *ints = PyList_New(p->rule == NULL ? p->n : 0);
    PyObject *out = PyList_New(len), *result = NULL;
    unsigned long long work = 0;
    Py_ssize_t ncur = p->ninit;

    if (ints == NULL || out == NULL)
        goto done;
    if (!cur || !next || !mark || !seen || !moving) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t s = 0; s < PyList_GET_SIZE(ints); s++) {
        PyObject *v = PyLong_FromSsize_t(s);
        if (v == NULL)
            goto done;
        PyList_SET_ITEM(ints, s, v);
    }
    memcpy(cur, p->init, p->ninit * sizeof *cur);
    for (Py_ssize_t t = 0; t < len; t++) {
        Py_ssize_t stamp = t + 1, nnext = 0;
        unsigned char c = data[t];
        if (c < p->ncls) {
            for (Py_ssize_t i = 0; i < ncur; i++) {
                const uint32_t *row = p->off + cur[i] * p->ncls + c;
                work += row[1] - row[0];
                for (uint32_t j = row[0]; j < row[1]; j++) {
                    int32_t d = p->succ[j];
                    if (mark[d] != stamp) {
                        mark[d] = stamp;
                        next[nnext++] = d;
                    }
                }
            }
        }
        work += p->nalways;
        for (Py_ssize_t i = 0; i < p->nalways; i++) {
            int32_t d = p->always[i];
            if (mark[d] != stamp) {
                mark[d] = stamp;
                next[nnext++] = d;
            }
        }
        PyObject *item = record(p, next, nnext, ints, seen, moving, stamp);
        if (item == NULL)
            goto done;
        PyList_SET_ITEM(out, t, item);
        int32_t *swap = cur;
        cur = next;
        next = swap;
        ncur = nnext;
    }
    result = Py_BuildValue("(OK)", out, work);
done:
    PyMem_Free(cur);
    PyMem_Free(next);
    PyMem_Free(mark);
    PyMem_Free(seen);
    PyMem_Free(moving);
    Py_XDECREF(ints);
    Py_XDECREF(out);
    return result;
}

static PyObject *
step_stream(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"program", "data", "rules", NULL};
    PyObject *program, *data, *rules = Py_None, *triple, *result = NULL;
    Program p = {0};
    Py_buffer view;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO|O:step_stream", kwlist,
                                     &program, &data, &rules))
        return NULL;
    if (!PyObject_CheckBuffer(data)) {
        PyErr_Format(PyExc_TypeError, "data must be a bytes-like object, "
                     "not '%.100s'", Py_TYPE(data)->tp_name);
        return NULL;
    }
    triple = PySequence_Fast(program, "program must be a (step, init, "
                                      "always) triple");
    if (triple == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(triple) != 3) {
        PyErr_SetString(PyExc_ValueError,
                        "program must be a (step, init, always) triple");
        goto done;
    }
    if (read_step(PySequence_Fast_GET_ITEM(triple, 0), &p) < 0
            || !(p.init = read_indices(PySequence_Fast_GET_ITEM(triple, 1),
                                       p.n, "init", &p.ninit))
            || !(p.always = read_indices(PySequence_Fast_GET_ITEM(triple, 2),
                                         p.n, "always", &p.nalways))
            || (rules != Py_None && read_rules(rules, &p) < 0))
        goto done;
    if (PyObject_GetBuffer(data, &view, PyBUF_SIMPLE) < 0)
        goto done;
    result = scan(&p, view.buf, view.len);
    PyBuffer_Release(&view);
done:
    program_free(&p);
    Py_DECREF(triple);
    return result;
}

static PyMethodDef methods[] = {
    {"step_stream", (PyCFunction)(void (*)(void))step_stream,
     METH_VARARGS | METH_KEYWORDS,
     "step_stream(program, data, rules=None)\n--\n\n"
     "Return (per-cycle active frozensets, operation count); with rules,\n"
     "per-cycle (active_rules, moving_rules) pairs instead of the sets."},
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
    return PyModule_Create(&module);
}
