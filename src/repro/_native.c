/* Native planner kernel: the `SunflowScheduler.schedule_demand` hot loop.
 *
 * This module is the compiled twin of the event-driven scheduling loop in
 * `repro/core/sunflow.py` (`SunflowScheduler._plan_python`).  It operates
 * directly on the PortReservationTable's struct-of-arrays storage — the
 * per-port `array('d')` interleaved boundary arrays and `array('q')`
 * journal-ref arrays documented in `repro/core/prt.py` — through the
 * buffer protocol, so no port timeline is copied across the Python/C
 * boundary.  Raw boundary pointers are cached per port and invalidated
 * after this module's own inserts; that is sound because the scheduler
 * holds the GIL throughout and nothing else mutates the table during a
 * `schedule_demand` call.  Buffers are released *before* any
 * `array.insert` call (arrays refuse to resize while exporting a buffer).
 *
 * Bitwise contract: every float expression is kept verbatim from the
 * Python loop — same operand order, double precision throughout, and the
 * extension is compiled with `-ffp-contract=off` so no FMA contraction
 * can change a rounding.  The differential suites in
 * `tests/kernels/test_native_planner.py` fuzz this module against the
 * Python loop and require byte-identical reservations.
 *
 * Structural liberties that provably cannot change the output:
 *   - seed events are sorted + uniqued instead of `list(set(...))` +
 *     `heapify` (a sorted array is a valid min-heap, and the heap's pop
 *     order over distinct elements is its total order regardless of the
 *     internal arrangement);
 *   - the per-batch "taken"/"released" sets are epoch stamps on port
 *     slots instead of Python sets (membership-equivalent);
 *   - the multi-queue interleave scans queue heads for the minimum
 *     order index instead of keeping a heads heap (order indices are
 *     unique, so the selection sequence is identical).
 *
 * `LAYOUT_VERSION` must match `repro.core.prt.PRT_LAYOUT_VERSION`; the
 * backend resolver (`repro/backend.py`) refuses to use a stale build.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

#define NATIVE_LAYOUT_VERSION 1

/* Interned attribute/method names, created once at module init. */
static PyObject *str__in_bounds, *str__in_refs, *str__out_bounds,
    *str__out_refs, *str__reservations, *str__ends, *str__ends_sorted,
    *str_insert, *str_append, *str_frombytes, *str_src, *str_dst, *str_start,
    *str_end, *str_coflow_id, *str_setup;
static PyObject *array_type;     /* array.array */
static PyObject *typecode_d, *typecode_q;
static PyObject *empty_tuple;

/* ------------------------------------------------------------------ */
/* Data structures                                                     */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t key;              /* input p -> 2p, output p -> 2p + 1 */
    int64_t port;
    int is_input;
    PyObject *port_obj;       /* PyLong(port), strong */
    PyObject *bounds;         /* array('d') or NULL when absent from the dict */
    PyObject *refs;           /* array('q') or NULL */
    PyObject *bounds_insert;  /* cached bound methods, lazy */
    PyObject *refs_insert;
    double *bdata;            /* cached raw boundary doubles */
    Py_ssize_t blen;          /* number of doubles */
    int bvalid;
    int64_t taken_epoch;      /* == ctx epoch: port taken this batch */
    int64_t rel_epoch;        /* == ctx epoch: already collected this batch */
    int32_t *q;               /* waiting entry indices, sorted ascending */
    Py_ssize_t qlen, qcap;
} Slot;

typedef struct {
    int64_t src, dst;
    double remaining;
    int has_est;
    double setup_left;
    double anchor;            /* NaN encodes "no anchor" */
    Py_ssize_t in_slot, out_slot;
    int32_t index;            /* == order_index (list position) */
} CEntry;

typedef struct {
    double t;
    int64_t src, dst;
} Event;

typedef struct {
    Slot *slot;
    int32_t *data;            /* detached queue (stolen from the slot) */
    Py_ssize_t len, pos;
    int active;
} DQueue;

/* Offsets of the Reservation __slots__, resolved once per call from the
 * class's member descriptors; when the class is not a plain slots
 * dataclass (offs_ok == 0) construction falls back to PyObject_SetAttr. */
typedef struct {
    Py_ssize_t start, end, src, dst, coflow_id, setup;
} ResOffsets;

typedef struct {
    PyObject *prt;            /* borrowed */
    PyObject *res_type;       /* borrowed */
    PyObject *coflow_id;      /* borrowed */
    PyObject *out_list;       /* borrowed */
    double start_time, delta, eps;
    int has_established;
    PyObject *in_bounds_map, *in_refs_map;    /* strong */
    PyObject *out_bounds_map, *out_refs_map;  /* strong */
    PyObject *journal;        /* list, strong */
    PyObject *ends;           /* array('d'), strong */
    PyObject *ends_append;    /* lazy, strong */
    PyObject *delta_obj;      /* PyFloat(delta), strong */
    int ends_dirty;
    Slot *slots;
    Py_ssize_t nslots;
    CEntry *entries;
    Py_ssize_t nentries;
    Event *heap;
    Py_ssize_t hlen, hcap;
    Py_ssize_t outstanding;
    int64_t epoch;
    DQueue *dqs;              /* per-batch detached queues */
    Py_ssize_t ndq;
    ResOffsets offs;
    int offs_ok;
} Ctx;

/* ------------------------------------------------------------------ */
/* Bisect twins (identical semantics to the bisect module)             */
/* ------------------------------------------------------------------ */

static inline Py_ssize_t
bisect_right_d(const double *a, Py_ssize_t n, double x)
{
    Py_ssize_t lo = 0, hi = n;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) >> 1;
        if (x < a[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

static inline Py_ssize_t
bisect_left_d(const double *a, Py_ssize_t n, double x)
{
    Py_ssize_t lo = 0, hi = n;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) >> 1;
        if (a[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* ------------------------------------------------------------------ */
/* Event heap: lexicographic (t, src, dst), matching tuple comparison  */
/* ------------------------------------------------------------------ */

static inline int
ev_lt(const Event *a, const Event *b)
{
    if (a->t != b->t)
        return a->t < b->t;
    if (a->src != b->src)
        return a->src < b->src;
    return a->dst < b->dst;
}

static int
ev_qsort_cmp(const void *pa, const void *pb)
{
    const Event *a = (const Event *)pa, *b = (const Event *)pb;
    if (a->t < b->t) return -1;
    if (a->t > b->t) return 1;
    if (a->src != b->src) return a->src < b->src ? -1 : 1;
    if (a->dst != b->dst) return a->dst < b->dst ? -1 : 1;
    return 0;
}

static int
heap_reserve(Ctx *c, Py_ssize_t need)
{
    if (need <= c->hcap)
        return 0;
    Py_ssize_t cap = c->hcap ? c->hcap : 16;
    while (cap < need)
        cap += cap;
    Event *h = (Event *)PyMem_Realloc(c->heap, (size_t)cap * sizeof(Event));
    if (h == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    c->heap = h;
    c->hcap = cap;
    return 0;
}

static int
heap_push(Ctx *c, Event ev)
{
    if (heap_reserve(c, c->hlen + 1) < 0)
        return -1;
    Event *h = c->heap;
    Py_ssize_t i = c->hlen++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (ev_lt(&ev, &h[parent])) {
            h[i] = h[parent];
            i = parent;
        }
        else
            break;
    }
    h[i] = ev;
    return 0;
}

static Event
heap_pop(Ctx *c)
{
    Event *h = c->heap;
    Event top = h[0];
    Event last = h[--c->hlen];
    Py_ssize_t n = c->hlen;
    if (n > 0) {
        Py_ssize_t i = 0;
        for (;;) {
            Py_ssize_t l = 2 * i + 1;
            if (l >= n)
                break;
            Py_ssize_t m = l;
            if (l + 1 < n && ev_lt(&h[l + 1], &h[l]))
                m = l + 1;
            if (ev_lt(&h[m], &last)) {
                h[i] = h[m];
                i = m;
            }
            else
                break;
        }
        h[i] = last;
    }
    return top;
}

/* ------------------------------------------------------------------ */
/* Slots                                                               */
/* ------------------------------------------------------------------ */

static Slot *
find_slot(Ctx *c, int64_t key)
{
    Py_ssize_t lo = 0, hi = c->nslots;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) >> 1;
        if (c->slots[mid].key < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < c->nslots && c->slots[lo].key == key)
        return &c->slots[lo];
    return NULL;
}

/* Refresh the cached raw boundary pointer.  The buffer is released
 * immediately — the pointer stays valid until the array resizes, which
 * only this module's own inserts can cause (they clear `bvalid`). */
static int
slot_refresh(Slot *s)
{
    if (s->bounds == NULL) {
        s->bdata = NULL;
        s->blen = 0;
        s->bvalid = 1;
        return 0;
    }
    Py_buffer view;
    if (PyObject_GetBuffer(s->bounds, &view, PyBUF_SIMPLE) < 0)
        return -1;
    s->bdata = (double *)view.buf;
    s->blen = (Py_ssize_t)(view.len / (Py_ssize_t)sizeof(double));
    PyBuffer_Release(&view);
    s->bvalid = 1;
    return 0;
}

/* Sorted insert into a slot's waiting queue (== bisect.insort by
 * order_index; entry indices equal order indices). */
static int
q_insert(Slot *s, int32_t v)
{
    if (s->qlen == s->qcap) {
        Py_ssize_t cap = s->qcap ? s->qcap * 2 : 8;
        int32_t *q = (int32_t *)PyMem_Realloc(s->q, (size_t)cap * sizeof(int32_t));
        if (q == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        s->q = q;
        s->qcap = cap;
    }
    if (s->qlen == 0 || s->q[s->qlen - 1] < v) {
        s->q[s->qlen++] = v;
        return 0;
    }
    Py_ssize_t lo = 0, hi = s->qlen;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) >> 1;
        if (s->q[mid] < v)
            lo = mid + 1;
        else
            hi = mid;
    }
    memmove(s->q + lo + 1, s->q + lo, (size_t)(s->qlen - lo) * sizeof(int32_t));
    s->q[lo] = v;
    s->qlen++;
    return 0;
}

/* Merge an unexamined (sorted) detached-queue suffix back into the
 * slot's waiting queue (the `reattach` merge; both runs sorted and
 * disjoint, so a two-pointer merge reproduces the Timsort result). */
static int
q_reattach(Slot *s, const int32_t *data, Py_ssize_t n)
{
    if (n == 0)
        return 0;
    if (s->qlen == 0) {
        if (s->qcap < n) {
            int32_t *q = (int32_t *)PyMem_Realloc(s->q, (size_t)n * sizeof(int32_t));
            if (q == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            s->q = q;
            s->qcap = n;
        }
        memcpy(s->q, data, (size_t)n * sizeof(int32_t));
        s->qlen = n;
        return 0;
    }
    Py_ssize_t total = s->qlen + n;
    int32_t *merged = (int32_t *)PyMem_Malloc((size_t)total * sizeof(int32_t));
    if (merged == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t i = 0, j = 0, k = 0;
    while (i < n && j < s->qlen)
        merged[k++] = data[i] < s->q[j] ? data[i++] : s->q[j++];
    while (i < n)
        merged[k++] = data[i++];
    while (j < s->qlen)
        merged[k++] = s->q[j++];
    PyMem_Free(s->q);
    s->q = merged;
    s->qlen = total;
    s->qcap = total;
    return 0;
}

/* Create the port's bounds/refs arrays and publish them in the PRT
 * dicts, mirroring the `ib is None` branch of the Python loop. */
static int
slot_create_arrays(Ctx *c, Slot *s)
{
    PyObject *bounds = PyObject_CallFunctionObjArgs(array_type, typecode_d, NULL);
    if (bounds == NULL)
        return -1;
    PyObject *refs = PyObject_CallFunctionObjArgs(array_type, typecode_q, NULL);
    if (refs == NULL) {
        Py_DECREF(bounds);
        return -1;
    }
    PyObject *bmap = s->is_input ? c->in_bounds_map : c->out_bounds_map;
    PyObject *rmap = s->is_input ? c->in_refs_map : c->out_refs_map;
    if (PyDict_SetItem(bmap, s->port_obj, bounds) < 0 ||
        PyDict_SetItem(rmap, s->port_obj, refs) < 0) {
        Py_DECREF(bounds);
        Py_DECREF(refs);
        return -1;
    }
    s->bounds = bounds;   /* keep the strong references */
    s->refs = refs;
    s->bdata = NULL;
    s->blen = 0;
    s->bvalid = 1;
    return 0;
}

/* bounds.insert(k, end); bounds.insert(k, t); refs.insert(k >> 1, idx) */
static int
slot_insert(Ctx *c, Slot *s, Py_ssize_t k, PyObject *t_obj, PyObject *end_obj,
            PyObject *idx_obj)
{
    if (s->bounds == NULL && slot_create_arrays(c, s) < 0)
        return -1;
    if (s->bounds_insert == NULL) {
        s->bounds_insert = PyObject_GetAttr(s->bounds, str_insert);
        if (s->bounds_insert == NULL)
            return -1;
    }
    if (s->refs_insert == NULL) {
        if (s->refs == NULL) {
            PyErr_Format(PyExc_RuntimeError,
                         "PRT port %lld has bounds but no refs array",
                         (long long)s->port);
            return -1;
        }
        s->refs_insert = PyObject_GetAttr(s->refs, str_insert);
        if (s->refs_insert == NULL)
            return -1;
    }
    PyObject *kobj = PyLong_FromSsize_t(k);
    if (kobj == NULL)
        return -1;
    PyObject *jobj = PyLong_FromSsize_t(k >> 1);
    if (jobj == NULL) {
        Py_DECREF(kobj);
        return -1;
    }
    int rv = -1;
    PyObject *argv[2];
    argv[0] = kobj;
    argv[1] = end_obj;
    PyObject *r = PyObject_Vectorcall(s->bounds_insert, argv, 2, NULL);
    if (r == NULL)
        goto done;
    Py_DECREF(r);
    argv[1] = t_obj;
    r = PyObject_Vectorcall(s->bounds_insert, argv, 2, NULL);
    if (r == NULL)
        goto done;
    Py_DECREF(r);
    argv[0] = jobj;
    argv[1] = idx_obj;
    r = PyObject_Vectorcall(s->refs_insert, argv, 2, NULL);
    if (r == NULL)
        goto done;
    Py_DECREF(r);
    rv = 0;
done:
    Py_DECREF(kobj);
    Py_DECREF(jobj);
    s->bvalid = 0;   /* the insert may have reallocated the array */
    return rv;
}

/* ------------------------------------------------------------------ */
/* PRT query twins                                                     */
/* ------------------------------------------------------------------ */

/* `PortReservationTable.release_of_block`, on the cached buffers.  Only
 * the `on_input` half of the return value is used by the caller. */
static int
release_of_block_c(const Ctx *c, const Slot *si, const Slot *so, double t,
                   double t_next)
{
    double end = HUGE_VAL;
    int on_input = 1;
    double tol = t - c->eps;
    double start_tol = t_next + c->eps;
    if (si->blen) {
        Py_ssize_t i = bisect_left_d(si->bdata, si->blen, tol);
        if (i & 1)
            i++;
        if (i < si->blen && si->bdata[i] <= start_tol) {
            end = si->bdata[i + 1];
            on_input = 1;
        }
    }
    if (so->blen) {
        Py_ssize_t i = bisect_left_d(so->bdata, so->blen, tol);
        if (i & 1)
            i++;
        if (i < so->blen && so->bdata[i] <= start_tol) {
            double candidate = so->bdata[i + 1];
            if (candidate < end) {
                end = candidate;
                on_input = 0;
            }
        }
    }
    return on_input;
}

/* ------------------------------------------------------------------ */
/* Reservation construction + journal insert                           */
/* ------------------------------------------------------------------ */

static int
make_reservation(Ctx *c, Slot *si, Slot *so, Py_ssize_t ki, Py_ssize_t ko,
                 double t, double end, double setup)
{
    int rv = -1;
    PyObject *res = NULL, *t_obj = NULL, *end_obj = NULL, *setup_obj = NULL,
             *idx_obj = NULL, *r = NULL;
    PyTypeObject *tp = (PyTypeObject *)c->res_type;
    res = tp->tp_new(tp, empty_tuple, NULL);
    if (res == NULL)
        goto done;
    t_obj = PyFloat_FromDouble(t);
    if (t_obj == NULL)
        goto done;
    end_obj = PyFloat_FromDouble(end);
    if (end_obj == NULL)
        goto done;
    if (setup == c->delta) {
        setup_obj = c->delta_obj;
        Py_INCREF(setup_obj);
    }
    else {
        setup_obj = PyFloat_FromDouble(setup);
        if (setup_obj == NULL)
            goto done;
    }
    if (c->offs_ok) {
        /* Fresh slots are NULL after tp_new, so plain stores suffice. */
        char *base = (char *)res;
        Py_INCREF(t_obj);
        *(PyObject **)(base + c->offs.start) = t_obj;
        Py_INCREF(end_obj);
        *(PyObject **)(base + c->offs.end) = end_obj;
        Py_INCREF(si->port_obj);
        *(PyObject **)(base + c->offs.src) = si->port_obj;
        Py_INCREF(so->port_obj);
        *(PyObject **)(base + c->offs.dst) = so->port_obj;
        Py_INCREF(c->coflow_id);
        *(PyObject **)(base + c->offs.coflow_id) = c->coflow_id;
        Py_INCREF(setup_obj);
        *(PyObject **)(base + c->offs.setup) = setup_obj;
    }
    else if (PyObject_SetAttr(res, str_start, t_obj) < 0 ||
             PyObject_SetAttr(res, str_end, end_obj) < 0 ||
             PyObject_SetAttr(res, str_src, si->port_obj) < 0 ||
             PyObject_SetAttr(res, str_dst, so->port_obj) < 0 ||
             PyObject_SetAttr(res, str_coflow_id, c->coflow_id) < 0 ||
             PyObject_SetAttr(res, str_setup, setup_obj) < 0)
        goto done;
    idx_obj = PyLong_FromSsize_t(PyList_GET_SIZE(c->journal));
    if (idx_obj == NULL)
        goto done;
    if (slot_insert(c, si, ki, t_obj, end_obj, idx_obj) < 0)
        goto done;
    if (slot_insert(c, so, ko, t_obj, end_obj, idx_obj) < 0)
        goto done;
    if (c->ends_append == NULL) {
        c->ends_append = PyObject_GetAttr(c->ends, str_append);
        if (c->ends_append == NULL)
            goto done;
    }
    r = PyObject_Vectorcall(c->ends_append, &end_obj, 1, NULL);
    if (r == NULL)
        goto done;
    if (!c->ends_dirty) {
        if (PyObject_SetAttr(c->prt, str__ends_sorted, Py_None) < 0)
            goto done;
        c->ends_dirty = 1;
    }
    if (PyList_Append(c->journal, res) < 0)
        goto done;
    if (PyList_Append(c->out_list, res) < 0)
        goto done;
    rv = 0;
done:
    Py_XDECREF(res);
    Py_XDECREF(t_obj);
    Py_XDECREF(end_obj);
    Py_XDECREF(setup_obj);
    Py_XDECREF(idx_obj);
    Py_XDECREF(r);
    return rv;
}

/* ------------------------------------------------------------------ */
/* examine(): one entry attempt (the inlined `_make_reservation`)      */
/* ------------------------------------------------------------------ */

static int
examine(Ctx *c, CEntry *e, double t, int origin)
{
    Slot *si = &c->slots[e->in_slot];
    Slot *so = &c->slots[e->out_slot];
    if (!si->bvalid && slot_refresh(si) < 0)
        return -1;
    if (!so->bvalid && slot_refresh(so) < 0)
        return -1;
    double teps = t + c->eps;
    Py_ssize_t ki = 0, ko = 0;
    /* Covering probes: one bisect per port; odd parity means taken. */
    if (si->blen) {
        ki = bisect_right_d(si->bdata, si->blen, teps);
        if (ki & 1)
            return q_insert(si, e->index);
    }
    if (so->blen) {
        ko = bisect_right_d(so->bdata, so->blen, teps);
        if (ko & 1)
            return q_insert(so, e->index);
    }
    /* Both ports free: gap runs to the next reserved start on either. */
    double t_next = HUGE_VAL;
    if (ki < si->blen)
        t_next = si->bdata[ki];
    if (ko < so->blen && so->bdata[ko] < t_next)
        t_next = so->bdata[ko];
    double setup;
    double anchor = NAN;
    if (origin && e->has_est) {
        anchor = e->anchor;
        setup = e->setup_left < c->delta ? e->setup_left : c->delta;
    }
    else
        setup = c->delta;
    double max_length = t_next - t;
    if (max_length <= setup + c->eps) {
        int on_input = release_of_block_c(c, si, so, t, t_next);
        return q_insert(on_input ? si : so, e->index);
    }
    double desired_length = setup + e->remaining;
    double length, end;
    if (desired_length < max_length) {
        length = desired_length;
        end = t + length;
        if (!isnan(anchor) && fabs(end - anchor) <= c->eps)
            end = anchor;
    }
    else {
        length = max_length;
        end = t_next;
    }
    if (make_reservation(c, si, so, ki, ko, t, end, setup) < 0)
        return -1;
    si->taken_epoch = c->epoch;
    so->taken_epoch = c->epoch;
    Event ev = {end, e->src, e->dst};
    if (heap_push(c, ev) < 0)
        return -1;
    double left = desired_length - length;
    e->remaining = left;
    if (left <= c->eps) {
        c->outstanding--;
        return 0;
    }
    /* Truncated: wait out the entry's own input port. */
    return q_insert(si, e->index);
}

/* ------------------------------------------------------------------ */
/* Release-event seeding                                               */
/* ------------------------------------------------------------------ */

static int
seed_events(Ctx *c)
{
    Py_ssize_t journal_len = PyList_GET_SIZE(c->journal);
    for (Py_ssize_t sidx = 0; sidx < c->nslots; sidx++) {
        Slot *s = &c->slots[sidx];
        if (slot_refresh(s) < 0)
            return -1;
        if (s->blen == 0)
            continue;
        Py_ssize_t k = bisect_right_d(s->bdata, s->blen, c->start_time + c->eps) >> 1;
        Py_ssize_t nres = s->blen >> 1;
        if (k >= nres)
            continue;
        Py_ssize_t count = nres - k;
        Py_buffer view;
        if (PyObject_GetBuffer(s->refs, &view, PyBUF_SIMPLE) < 0)
            return -1;
        if ((Py_ssize_t)(view.len / (Py_ssize_t)sizeof(int64_t)) < nres) {
            PyBuffer_Release(&view);
            PyErr_Format(PyExc_RuntimeError,
                         "PRT port %lld: refs shorter than bounds",
                         (long long)s->port);
            return -1;
        }
        int64_t *refs = (int64_t *)PyMem_Malloc((size_t)count * sizeof(int64_t));
        if (refs == NULL) {
            PyBuffer_Release(&view);
            PyErr_NoMemory();
            return -1;
        }
        memcpy(refs, (int64_t *)view.buf + k, (size_t)count * sizeof(int64_t));
        PyBuffer_Release(&view);
        if (heap_reserve(c, c->hlen + count) < 0) {
            PyMem_Free(refs);
            return -1;
        }
        for (Py_ssize_t i = 0; i < count; i++) {
            int64_t ref = refs[i];
            if (ref < 0 || ref >= journal_len) {
                PyMem_Free(refs);
                PyErr_Format(PyExc_RuntimeError,
                             "PRT port %lld: journal ref %lld out of range",
                             (long long)s->port, (long long)ref);
                return -1;
            }
            PyObject *item = PyList_GET_ITEM(c->journal, ref);
            PyObject *peer_obj =
                PyObject_GetAttr(item, s->is_input ? str_dst : str_src);
            if (peer_obj == NULL) {
                PyMem_Free(refs);
                return -1;
            }
            long long peer = PyLong_AsLongLong(peer_obj);
            Py_DECREF(peer_obj);
            if (peer == -1 && PyErr_Occurred()) {
                PyMem_Free(refs);
                return -1;
            }
            Event ev;
            ev.t = s->bdata[2 * (k + i) + 1];
            if (s->is_input) {
                ev.src = s->port;
                ev.dst = peer;
            }
            else {
                ev.src = peer;
                ev.dst = s->port;
            }
            c->heap[c->hlen++] = ev;
        }
        PyMem_Free(refs);
    }
    /* `list(set(seeded))` + heapify, deterministically: sort by
     * (t, src, dst) and drop exact duplicates (a circuit touching both a
     * used input and a used output seeds the same triple twice).  A
     * sorted array is a valid min-heap, and over distinct elements the
     * pop order is the total order either way. */
    if (c->hlen > 1) {
        qsort(c->heap, (size_t)c->hlen, sizeof(Event), ev_qsort_cmp);
        Py_ssize_t w = 1;
        for (Py_ssize_t i = 1; i < c->hlen; i++) {
            Event *prev = &c->heap[w - 1], *cur = &c->heap[i];
            if (cur->t == prev->t && cur->src == prev->src &&
                cur->dst == prev->dst)
                continue;
            c->heap[w++] = *cur;
        }
        c->hlen = w;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Batch queue collection                                              */
/* ------------------------------------------------------------------ */

static void
collect_key(Ctx *c, int64_t key)
{
    Slot *s = find_slot(c, key);
    if (s == NULL || s->rel_epoch == c->epoch)
        return;
    s->rel_epoch = c->epoch;
    if (s->qlen == 0)
        return;
    DQueue *d = &c->dqs[c->ndq++];
    d->slot = s;
    d->data = s->q;
    d->len = s->qlen;
    d->pos = 0;
    d->active = 1;
    s->q = NULL;        /* steal: the slot starts a fresh queue */
    s->qlen = 0;
    s->qcap = 0;
}

/* ------------------------------------------------------------------ */
/* Context setup / teardown                                            */
/* ------------------------------------------------------------------ */

static void
ctx_free(Ctx *c)
{
    if (c->slots != NULL) {
        for (Py_ssize_t i = 0; i < c->nslots; i++) {
            Slot *s = &c->slots[i];
            Py_XDECREF(s->port_obj);
            Py_XDECREF(s->bounds);
            Py_XDECREF(s->refs);
            Py_XDECREF(s->bounds_insert);
            Py_XDECREF(s->refs_insert);
            PyMem_Free(s->q);
        }
        PyMem_Free(c->slots);
    }
    if (c->dqs != NULL) {
        for (Py_ssize_t i = 0; i < c->ndq; i++)
            PyMem_Free(c->dqs[i].data);
        PyMem_Free(c->dqs);
    }
    PyMem_Free(c->entries);
    PyMem_Free(c->heap);
    Py_XDECREF(c->in_bounds_map);
    Py_XDECREF(c->in_refs_map);
    Py_XDECREF(c->out_bounds_map);
    Py_XDECREF(c->out_refs_map);
    Py_XDECREF(c->journal);
    Py_XDECREF(c->ends);
    Py_XDECREF(c->ends_append);
    Py_XDECREF(c->delta_obj);
}

/* Resolve one __slots__ member offset; -1 (without an exception) when the
 * attribute is not a plain object-slot member descriptor. */
static Py_ssize_t
member_offset(PyTypeObject *tp, PyObject *name)
{
    Py_ssize_t off = -1;
    PyObject *descr = PyObject_GetAttr((PyObject *)tp, name);
    if (descr == NULL) {
        PyErr_Clear();
        return -1;
    }
    if (Py_TYPE(descr) == &PyMemberDescr_Type) {
        PyMemberDef *def = ((PyMemberDescrObject *)descr)->d_member;
        if (def != NULL && def->type == T_OBJECT_EX && def->flags == 0)
            off = def->offset;
    }
    Py_DECREF(descr);
    return off;
}

static void
resolve_offsets(Ctx *c)
{
    PyTypeObject *tp = (PyTypeObject *)c->res_type;
    c->offs.start = member_offset(tp, str_start);
    c->offs.end = member_offset(tp, str_end);
    c->offs.src = member_offset(tp, str_src);
    c->offs.dst = member_offset(tp, str_dst);
    c->offs.coflow_id = member_offset(tp, str_coflow_id);
    c->offs.setup = member_offset(tp, str_setup);
    c->offs_ok = c->offs.start >= 0 && c->offs.end >= 0 && c->offs.src >= 0 &&
                 c->offs.dst >= 0 && c->offs.coflow_id >= 0 &&
                 c->offs.setup >= 0;
}

static int
int64_key_cmp(const void *pa, const void *pb)
{
    int64_t a = *(const int64_t *)pa, b = *(const int64_t *)pb;
    return a < b ? -1 : (a > b ? 1 : 0);
}

/* Fetch and type-check the PRT storage attributes plus per-call
 * constants; shared by the tuple-list and packed-columns entry points. */
static int
ctx_attach(Ctx *c, PyObject *prt, PyObject *res_type, PyObject *coflow_id,
           double start_time, double delta, double eps, int has_established,
           PyObject *out_list)
{
    c->prt = prt;
    c->res_type = res_type;
    c->coflow_id = coflow_id;
    c->out_list = out_list;
    c->start_time = start_time;
    c->delta = delta;
    c->eps = eps;
    c->has_established = has_established;
    c->epoch = 1;

    c->in_bounds_map = PyObject_GetAttr(prt, str__in_bounds);
    c->in_refs_map = PyObject_GetAttr(prt, str__in_refs);
    c->out_bounds_map = PyObject_GetAttr(prt, str__out_bounds);
    c->out_refs_map = PyObject_GetAttr(prt, str__out_refs);
    c->journal = PyObject_GetAttr(prt, str__reservations);
    c->ends = PyObject_GetAttr(prt, str__ends);
    if (c->in_bounds_map == NULL || c->in_refs_map == NULL ||
        c->out_bounds_map == NULL || c->out_refs_map == NULL ||
        c->journal == NULL || c->ends == NULL)
        return -1;
    if (!PyDict_Check(c->in_bounds_map) || !PyDict_Check(c->in_refs_map) ||
        !PyDict_Check(c->out_bounds_map) || !PyDict_Check(c->out_refs_map) ||
        !PyList_Check(c->journal)) {
        PyErr_SetString(PyExc_TypeError,
                        "PRT storage layout does not match the native kernel");
        return -1;
    }
    c->delta_obj = PyFloat_FromDouble(delta);
    if (c->delta_obj == NULL)
        return -1;
    resolve_offsets(c);
    return 0;
}

/* Build the sorted slot table (and per-entry slot indices) from the
 * already-populated c->entries array. */
static int
ctx_build_slots(Ctx *c)
{
    Py_ssize_t n = c->nentries;
    int64_t *keys = (int64_t *)PyMem_Malloc((size_t)(2 * n) * sizeof(int64_t));
    if (keys == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        keys[2 * i] = c->entries[i].src * 2;
        keys[2 * i + 1] = c->entries[i].dst * 2 + 1;
    }
    qsort(keys, (size_t)(2 * n), sizeof(int64_t), int64_key_cmp);
    Py_ssize_t nslots = 0;
    for (Py_ssize_t i = 0; i < 2 * n; i++)
        if (i == 0 || keys[i] != keys[i - 1])
            keys[nslots++] = keys[i];
    c->slots = (Slot *)PyMem_Calloc((size_t)nslots, sizeof(Slot));
    if (c->slots == NULL) {
        PyMem_Free(keys);
        PyErr_NoMemory();
        return -1;
    }
    c->nslots = nslots;
    for (Py_ssize_t i = 0; i < nslots; i++) {
        Slot *s = &c->slots[i];
        int64_t key = keys[i];
        s->key = key;
        s->is_input = (key & 1) == 0;
        s->port = s->is_input ? key / 2 : (key - 1) / 2;
        s->port_obj = PyLong_FromLongLong((long long)s->port);
        if (s->port_obj == NULL) {
            PyMem_Free(keys);
            return -1;
        }
        PyObject *bmap = s->is_input ? c->in_bounds_map : c->out_bounds_map;
        PyObject *rmap = s->is_input ? c->in_refs_map : c->out_refs_map;
        PyObject *bounds = PyDict_GetItemWithError(bmap, s->port_obj);
        if (bounds == NULL && PyErr_Occurred()) {
            PyMem_Free(keys);
            return -1;
        }
        PyObject *refs = PyDict_GetItemWithError(rmap, s->port_obj);
        if (refs == NULL && PyErr_Occurred()) {
            PyMem_Free(keys);
            return -1;
        }
        if ((bounds == NULL) != (refs == NULL)) {
            PyMem_Free(keys);
            PyErr_Format(PyExc_RuntimeError,
                         "PRT port %lld: bounds/refs tables out of sync",
                         (long long)s->port);
            return -1;
        }
        Py_XINCREF(bounds);
        Py_XINCREF(refs);
        s->bounds = bounds;
        s->refs = refs;
    }
    PyMem_Free(keys);
    for (Py_ssize_t i = 0; i < n; i++) {
        CEntry *e = &c->entries[i];
        e->in_slot = find_slot(c, e->src * 2) - c->slots;
        e->out_slot = find_slot(c, e->dst * 2 + 1) - c->slots;
    }
    c->dqs = (DQueue *)PyMem_Calloc((size_t)nslots, sizeof(DQueue));
    if (c->dqs == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static int
ctx_init(Ctx *c, PyObject *prt, PyObject *res_type, PyObject *coflow_id,
         double start_time, double delta, double eps, int has_established,
         PyObject *entries_list, PyObject *out_list)
{
    if (ctx_attach(c, prt, res_type, coflow_id, start_time, delta, eps,
                   has_established, out_list) < 0)
        return -1;
    Py_ssize_t n = PyList_GET_SIZE(entries_list);
    c->nentries = n;
    c->outstanding = n;
    if (n > INT32_MAX) {
        PyErr_SetString(PyExc_OverflowError, "too many demand entries");
        return -1;
    }
    c->entries = (CEntry *)PyMem_Calloc((size_t)n, sizeof(CEntry));
    if (c->entries == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyList_GET_ITEM(entries_list, i);
        if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 6) {
            PyErr_SetString(PyExc_TypeError,
                            "entries must be (src, dst, remaining, has_est, "
                            "setup_left, anchor) tuples");
            return -1;
        }
        CEntry *e = &c->entries[i];
        e->src = PyLong_AsLongLong(PyTuple_GET_ITEM(item, 0));
        e->dst = PyLong_AsLongLong(PyTuple_GET_ITEM(item, 1));
        e->remaining = PyFloat_AsDouble(PyTuple_GET_ITEM(item, 2));
        e->has_est = PyObject_IsTrue(PyTuple_GET_ITEM(item, 3));
        e->setup_left = PyFloat_AsDouble(PyTuple_GET_ITEM(item, 4));
        e->anchor = PyFloat_AsDouble(PyTuple_GET_ITEM(item, 5));
        e->index = (int32_t)i;
        if (PyErr_Occurred() || e->has_est < 0)
            return -1;
    }
    return ctx_build_slots(c);
}

/* ------------------------------------------------------------------ */
/* The scheduling loop                                                 */
/* ------------------------------------------------------------------ */

static int
run_schedule(Ctx *c)
{
    if (seed_events(c) < 0)
        return -1;

    /* First pass: every entry, in consideration order, at the origin. */
    int origin = c->has_established;
    for (Py_ssize_t i = 0; i < c->nentries; i++) {
        CEntry *e = &c->entries[i];
        Slot *si = &c->slots[e->in_slot];
        if (si->taken_epoch == c->epoch) {
            if (q_insert(si, e->index) < 0)
                return -1;
            continue;
        }
        Slot *so = &c->slots[e->out_slot];
        if (so->taken_epoch == c->epoch) {
            if (q_insert(so, e->index) < 0)
                return -1;
            continue;
        }
        if (examine(c, e, c->start_time, origin) < 0)
            return -1;
    }

    while (c->outstanding > 0) {
        if (c->hlen == 0) {
            PyErr_Format(PyExc_RuntimeError,
                         "coflow %S: demand left but no future release",
                         c->coflow_id);
            return -1;
        }
        Event ev = heap_pop(c);
        double t = ev.t;
        double horizon = t + c->eps;
        origin = c->has_established && fabs(t - c->start_time) <= c->eps;
        c->epoch++;   /* fresh taken/released sets for this batch */
        c->ndq = 0;
        collect_key(c, ev.src * 2);
        collect_key(c, ev.dst * 2 + 1);
        if (c->hlen && c->heap[0].t <= horizon) {
            /* Several circuits release within tolerance: wake the whole
             * batch of freed port queues. */
            while (c->hlen && c->heap[0].t <= horizon) {
                Event e2 = heap_pop(c);
                collect_key(c, e2.src * 2);
                collect_key(c, e2.dst * 2 + 1);
            }
        }
        if (c->ndq == 0)
            continue;
        if (c->ndq == 1) {
            /* One port queue woke up: examine in order until the port is
             * taken again; the untouched suffix goes back wholesale. */
            DQueue *d = &c->dqs[0];
            Slot *qs = d->slot;
            while (d->pos < d->len && qs->taken_epoch != c->epoch) {
                int32_t ei = d->data[d->pos++];
                CEntry *e = &c->entries[ei];
                Py_ssize_t other = qs->is_input ? e->out_slot : e->in_slot;
                if (c->slots[other].taken_epoch == c->epoch) {
                    if (q_insert(&c->slots[other], ei) < 0)
                        return -1;
                }
                else if (examine(c, e, t, origin) < 0)
                    return -1;
            }
            if (d->pos < d->len &&
                q_reattach(qs, d->data + d->pos, d->len - d->pos) < 0)
                return -1;
        }
        else {
            /* Several ports released within tolerance: interleave their
             * queues in global consideration order (order indices are
             * unique, so scanning for the minimum head reproduces the
             * heads-heap selection sequence). */
            for (;;) {
                Py_ssize_t best = -1;
                int32_t best_head = 0;
                for (Py_ssize_t j = 0; j < c->ndq; j++) {
                    DQueue *d = &c->dqs[j];
                    if (!d->active)
                        continue;
                    int32_t head = d->data[d->pos];
                    if (best < 0 || head < best_head) {
                        best = j;
                        best_head = head;
                    }
                }
                if (best < 0)
                    break;
                DQueue *d = &c->dqs[best];
                Slot *qs = d->slot;
                if (qs->taken_epoch == c->epoch) {
                    /* Port re-taken this batch: the rest of this queue is
                     * provably blocked; park it wholesale. */
                    if (q_reattach(qs, d->data + d->pos, d->len - d->pos) < 0)
                        return -1;
                    d->active = 0;
                    continue;
                }
                int32_t ei = d->data[d->pos++];
                if (d->pos >= d->len)
                    d->active = 0;
                CEntry *e = &c->entries[ei];
                Py_ssize_t other = qs->is_input ? e->out_slot : e->in_slot;
                if (c->slots[other].taken_epoch == c->epoch) {
                    if (q_insert(&c->slots[other], ei) < 0)
                        return -1;
                }
                else if (examine(c, e, t, origin) < 0)
                    return -1;
            }
        }
        for (Py_ssize_t j = 0; j < c->ndq; j++) {
            PyMem_Free(c->dqs[j].data);
            c->dqs[j].data = NULL;
        }
        c->ndq = 0;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Replan-transaction kernels: rollback / replay / transform           */
/*                                                                     */
/* These operate on the same struct-of-arrays storage as the planner   */
/* above but are called from `repro.core.prt` (rollback/replay) and    */
/* `repro.sim.circuit_sim` (transform_continuation).  Contract:        */
/*   - rollback raises on failure (the dispatcher has no fallback;     */
/*     removal involves no float math, so it is trivially bitwise);    */
/*   - replay returns True on success and False to decline — a decline */
/*     (conflict, foreign types, corrupt table) happens strictly       */
/*     before any mutation, so the pure-Python twin can re-run the     */
/*     transaction and raise the byte-identical error;                 */
/*   - transform_continuation returns the rebuilt head reservations,   */
/*     None when a proof obligation fails, or False to decline to the  */
/*     Python twin; it never mutates the table.                        */
/* ------------------------------------------------------------------ */

/* Highest port index the transaction kernels pack into int64 keys
 * ((src << 32) | dst); anything larger declines to Python. */
#define NATIVE_MAX_PORT ((int64_t)INT32_MAX)

typedef struct {
    PyObject *in_bounds, *in_refs, *out_bounds, *out_refs; /* dicts, strong */
    PyObject *journal;                                     /* list, strong */
    PyObject *ends;                                        /* array('d'), strong */
} PrtRefs;

static void
prt_refs_clear(PrtRefs *p)
{
    Py_XDECREF(p->in_bounds);
    Py_XDECREF(p->in_refs);
    Py_XDECREF(p->out_bounds);
    Py_XDECREF(p->out_refs);
    Py_XDECREF(p->journal);
    Py_XDECREF(p->ends);
    memset(p, 0, sizeof(PrtRefs));
}

static int
prt_refs_init(PrtRefs *p, PyObject *prt)
{
    memset(p, 0, sizeof(PrtRefs));
    p->in_bounds = PyObject_GetAttr(prt, str__in_bounds);
    p->in_refs = PyObject_GetAttr(prt, str__in_refs);
    p->out_bounds = PyObject_GetAttr(prt, str__out_bounds);
    p->out_refs = PyObject_GetAttr(prt, str__out_refs);
    p->journal = PyObject_GetAttr(prt, str__reservations);
    p->ends = PyObject_GetAttr(prt, str__ends);
    if (p->in_bounds == NULL || p->in_refs == NULL || p->out_bounds == NULL ||
        p->out_refs == NULL || p->journal == NULL || p->ends == NULL)
        goto fail;
    if (!PyDict_Check(p->in_bounds) || !PyDict_Check(p->in_refs) ||
        !PyDict_Check(p->out_bounds) || !PyDict_Check(p->out_refs) ||
        !PyList_Check(p->journal)) {
        PyErr_SetString(PyExc_TypeError,
                        "PRT storage layout does not match the native kernel");
        goto fail;
    }
    return 0;
fail:
    prt_refs_clear(p);
    return -1;
}

/* Field access on Reservation objects: through the resolved __slots__
 * offsets when the object is exactly the expected type, attribute
 * lookup otherwise.  Returns a strong reference. */
typedef struct {
    PyTypeObject *tp;
    ResOffsets offs;
    int offs_ok;
} ResReader;

static void
res_reader_init(ResReader *r, PyTypeObject *tp)
{
    r->tp = tp;
    r->offs.start = member_offset(tp, str_start);
    r->offs.end = member_offset(tp, str_end);
    r->offs.src = member_offset(tp, str_src);
    r->offs.dst = member_offset(tp, str_dst);
    r->offs.coflow_id = member_offset(tp, str_coflow_id);
    r->offs.setup = member_offset(tp, str_setup);
    r->offs_ok = r->offs.start >= 0 && r->offs.end >= 0 && r->offs.src >= 0 &&
                 r->offs.dst >= 0 && r->offs.coflow_id >= 0 &&
                 r->offs.setup >= 0;
}

static PyObject *
res_field(const ResReader *r, PyObject *item, Py_ssize_t off, PyObject *name)
{
    if (r->offs_ok && Py_TYPE(item) == r->tp) {
        PyObject *v = *(PyObject **)((char *)item + off);
        if (v != NULL) {
            Py_INCREF(v);
            return v;
        }
    }
    return PyObject_GetAttr(item, name);
}

/* Read the numeric fields of one reservation; NULL out-pointers skip
 * their field. */
static int
res_read(const ResReader *r, PyObject *item, double *start, double *end,
         int64_t *src, int64_t *dst)
{
    PyObject *v;
    if (start != NULL) {
        v = res_field(r, item, r->offs.start, str_start);
        if (v == NULL)
            return -1;
        *start = PyFloat_AsDouble(v);
        Py_DECREF(v);
        if (*start == -1.0 && PyErr_Occurred())
            return -1;
    }
    if (end != NULL) {
        v = res_field(r, item, r->offs.end, str_end);
        if (v == NULL)
            return -1;
        *end = PyFloat_AsDouble(v);
        Py_DECREF(v);
        if (*end == -1.0 && PyErr_Occurred())
            return -1;
    }
    if (src != NULL) {
        v = res_field(r, item, r->offs.src, str_src);
        if (v == NULL)
            return -1;
        *src = (int64_t)PyLong_AsLongLong(v);
        Py_DECREF(v);
        if (*src == -1 && PyErr_Occurred())
            return -1;
    }
    if (dst != NULL) {
        v = res_field(r, item, r->offs.dst, str_dst);
        if (v == NULL)
            return -1;
        *dst = (int64_t)PyLong_AsLongLong(v);
        Py_DECREF(v);
        if (*dst == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* Open-addressing set of non-negative int64 keys (circuits packed as
 * (src << 32) | dst).  Capacity is fixed at init — `expect` must bound
 * the number of adds — so inserts never rehash. */
typedef struct {
    int64_t *keys;
    size_t mask;
} ISet;

static int
iset_init(ISet *s, size_t expect)
{
    size_t cap = 16;
    while (cap < 2 * expect)
        cap <<= 1;
    s->keys = (int64_t *)PyMem_Malloc(cap * sizeof(int64_t));
    if (s->keys == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (size_t i = 0; i < cap; i++)
        s->keys[i] = -1;
    s->mask = cap - 1;
    return 0;
}

static inline size_t
iset_slot(const ISet *s, int64_t key)
{
    size_t i = (size_t)(((uint64_t)key * UINT64_C(0x9E3779B97F4A7C15)) >> 32) &
               s->mask;
    while (s->keys[i] != -1 && s->keys[i] != key)
        i = (i + 1) & s->mask;
    return i;
}

static inline int
iset_has(const ISet *s, int64_t key)
{
    return s->keys[iset_slot(s, key)] == key;
}

static inline void
iset_add(ISet *s, int64_t key)
{
    s->keys[iset_slot(s, key)] = key;
}

static void
iset_free(ISet *s)
{
    PyMem_Free(s->keys);
    s->keys = NULL;
}

/* array.array(typecode, <raw bytes>) — the constructor routes bytes
 * through frombytes(), so values land bitwise. */
static PyObject *
array_from_bytes(PyObject *typecode, const void *data, Py_ssize_t nbytes)
{
    PyObject *bytes = PyBytes_FromStringAndSize((const char *)data, nbytes);
    if (bytes == NULL)
        return NULL;
    PyObject *arr =
        PyObject_CallFunctionObjArgs(array_type, typecode, bytes, NULL);
    Py_DECREF(bytes);
    return arr;
}

/* arr[:] = array(typecode, <raw bytes>) */
static int
assign_array(PyObject *arr, PyObject *typecode, const void *data,
             Py_ssize_t nbytes)
{
    PyObject *na = array_from_bytes(typecode, data, nbytes);
    if (na == NULL)
        return -1;
    int rv = PySequence_SetSlice(arr, 0, PY_SSIZE_T_MAX, na);
    Py_DECREF(na);
    return rv;
}

/* arr.frombytes(<raw bytes>) — bitwise twin of a run of appends. */
static int
extend_array_bytes(PyObject *arr, const void *data, Py_ssize_t nbytes)
{
    PyObject *bytes = PyBytes_FromStringAndSize((const char *)data, nbytes);
    if (bytes == NULL)
        return -1;
    PyObject *r = PyObject_CallMethodObjArgs(arr, str_frombytes, bytes, NULL);
    Py_DECREF(bytes);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* PortReservationTable._strip_port: drop the `count` entries with
 * journal ref >= token — one tail slice-delete in the common case, one
 * rebuilding filter pass otherwise. */
static int
strip_port_c(PyObject *bounds, PyObject *refs, int64_t token, Py_ssize_t count)
{
    Py_buffer rview;
    if (PyObject_GetBuffer(refs, &rview, PyBUF_SIMPLE) < 0)
        return -1;
    const int64_t *rdata = (const int64_t *)rview.buf;
    Py_ssize_t n = (Py_ssize_t)(rview.len / (Py_ssize_t)sizeof(int64_t));
    Py_ssize_t j = n;
    while (j > 0 && rdata[j - 1] >= token)
        j--;
    if (n - j == count) {
        /* The undone entries form a contiguous tail. */
        PyBuffer_Release(&rview);
        if (PySequence_DelSlice(refs, j, PY_SSIZE_T_MAX) < 0)
            return -1;
        return PySequence_DelSlice(bounds, 2 * j, PY_SSIZE_T_MAX);
    }
    Py_buffer bview;
    if (PyObject_GetBuffer(bounds, &bview, PyBUF_SIMPLE) < 0) {
        PyBuffer_Release(&rview);
        return -1;
    }
    const double *bdata = (const double *)bview.buf;
    Py_ssize_t blen = (Py_ssize_t)(bview.len / (Py_ssize_t)sizeof(double));
    if (blen < 2 * n) {
        PyBuffer_Release(&bview);
        PyBuffer_Release(&rview);
        PyErr_SetString(PyExc_RuntimeError,
                        "PRT port: bounds shorter than refs during rollback");
        return -1;
    }
    /* Sized for the full table, not n - count: a corrupt count must not
     * overflow the rebuild. */
    size_t alloc = (size_t)(n > 0 ? n : 1);
    int64_t *nr = (int64_t *)PyMem_Malloc(alloc * sizeof(int64_t));
    double *nb = (double *)PyMem_Malloc(alloc * 2 * sizeof(double));
    if (nr == NULL || nb == NULL) {
        PyMem_Free(nr);
        PyMem_Free(nb);
        PyBuffer_Release(&bview);
        PyBuffer_Release(&rview);
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t w = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (rdata[i] < token) {
            nr[w] = rdata[i];
            nb[2 * w] = bdata[2 * i];
            nb[2 * w + 1] = bdata[2 * i + 1];
            w++;
        }
    }
    PyBuffer_Release(&bview);
    PyBuffer_Release(&rview);
    int rv = assign_array(bounds, typecode_d, nb,
                          (Py_ssize_t)(2 * w) * (Py_ssize_t)sizeof(double));
    if (rv == 0)
        rv = assign_array(refs, typecode_q, nr,
                          (Py_ssize_t)w * (Py_ssize_t)sizeof(int64_t));
    PyMem_Free(nr);
    PyMem_Free(nb);
    return rv;
}

static PyObject *
native_prt_rollback(PyObject *self, PyObject *args)
{
    PyObject *prt;
    Py_ssize_t token;
    if (!PyArg_ParseTuple(args, "On:prt_rollback", &prt, &token))
        return NULL;
    PrtRefs p;
    if (prt_refs_init(&p, prt) < 0)
        return NULL;
    PyObject *result = NULL;
    int64_t *keys = NULL;
    Py_ssize_t n = PyList_GET_SIZE(p.journal);
    if (token < 0 || token > n) {
        PyErr_Format(PyExc_ValueError,
                     "invalid checkpoint token %zd for table of %zd", token,
                     n);
        goto done;
    }
    Py_ssize_t undone = n - token;
    if (undone == 0) {
        result = PyLong_FromLong(0);
        goto done;
    }
    ResReader rd;
    res_reader_init(&rd, Py_TYPE(PyList_GET_ITEM(p.journal, token)));
    keys = (int64_t *)PyMem_Malloc((size_t)(2 * undone) * sizeof(int64_t));
    if (keys == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < undone; i++) {
        int64_t src, dst;
        if (res_read(&rd, PyList_GET_ITEM(p.journal, token + i), NULL, NULL,
                     &src, &dst) < 0)
            goto done;
        if (src < 0 || src > NATIVE_MAX_PORT || dst < 0 ||
            dst > NATIVE_MAX_PORT) {
            PyErr_Format(PyExc_OverflowError,
                         "port index out of native kernel range during "
                         "rollback (src=%lld, dst=%lld)",
                         (long long)src, (long long)dst);
            goto done;
        }
        keys[2 * i] = src * 2;
        keys[2 * i + 1] = dst * 2 + 1;
    }
    qsort(keys, (size_t)(2 * undone), sizeof(int64_t), int64_key_cmp);
    Py_ssize_t i = 0;
    while (i < 2 * undone) {
        Py_ssize_t runlen = 1;
        while (i + runlen < 2 * undone && keys[i + runlen] == keys[i])
            runlen++;
        int64_t key = keys[i];
        int is_input = (key & 1) == 0;
        int64_t port = is_input ? key / 2 : (key - 1) / 2;
        PyObject *port_obj = PyLong_FromLongLong((long long)port);
        if (port_obj == NULL)
            goto done;
        PyObject *bmap = is_input ? p.in_bounds : p.out_bounds;
        PyObject *rmap = is_input ? p.in_refs : p.out_refs;
        PyObject *bounds = PyDict_GetItemWithError(bmap, port_obj);
        if (bounds == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetObject(PyExc_KeyError, port_obj);
            Py_DECREF(port_obj);
            goto done;
        }
        PyObject *refs = PyDict_GetItemWithError(rmap, port_obj);
        if (refs == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetObject(PyExc_KeyError, port_obj);
            Py_DECREF(port_obj);
            goto done;
        }
        Py_INCREF(bounds);
        Py_INCREF(refs);
        Py_DECREF(port_obj);
        int rv = strip_port_c(bounds, refs, (int64_t)token, runlen);
        Py_DECREF(bounds);
        Py_DECREF(refs);
        if (rv < 0)
            goto done;
        i += runlen;
    }
    if (PyList_SetSlice(p.journal, token, PY_SSIZE_T_MAX, NULL) < 0)
        goto done;
    if (PySequence_DelSlice(p.ends, token, PY_SSIZE_T_MAX) < 0)
        goto done;
    if (PyObject_SetAttr(prt, str__ends_sorted, Py_None) < 0)
        goto done;
    result = PyLong_FromSsize_t(undone);
done:
    PyMem_Free(keys);
    prt_refs_clear(&p);
    return result;
}

/* One port-side record of one replayed reservation; sorting by
 * (key, start, end, ref) groups ports and reproduces the per-port
 * `items.sort()` of the Python twin (refs are unique, so the order is
 * total). */
typedef struct {
    int64_t key;
    double start, end;
    int64_t ref;
} RRec;

static int
rrec_cmp(const void *pa, const void *pb)
{
    const RRec *a = (const RRec *)pa, *b = (const RRec *)pb;
    if (a->key != b->key)
        return a->key < b->key ? -1 : 1;
    if (a->start < b->start)
        return -1;
    if (a->start > b->start)
        return 1;
    if (a->end < b->end)
        return -1;
    if (a->end > b->end)
        return 1;
    if (a->ref != b->ref)
        return a->ref < b->ref ? -1 : 1;
    return 0;
}

/* One staged per-port merge result, applied only after every port
 * validated. */
typedef struct {
    PyObject *port_obj;       /* strong */
    PyObject *bounds, *refs;  /* strong or NULL (op == 0) */
    int is_input;
    int op;                   /* 0 create, 1 append, 2 assign */
    double *bdata;            /* 2 * pairs staged boundaries */
    int64_t *rdata;           /* pairs staged refs */
    Py_ssize_t pairs;
} StagePort;

/* Validate + stage one port's run of replayed records.  Returns 1 when
 * staged, 0 to decline to the Python twin (conflict or anything
 * unexpected — nothing has been mutated), -1 on hard (OOM-class)
 * errors. */
static int
stage_run(PrtRefs *p, const RRec *recs, Py_ssize_t count, StagePort *st,
          double eps)
{
    int64_t key = recs[0].key;
    st->is_input = (key & 1) == 0;
    int64_t port = st->is_input ? key / 2 : (key - 1) / 2;
    st->port_obj = PyLong_FromLongLong((long long)port);
    if (st->port_obj == NULL)
        return -1;
    PyObject *bmap = st->is_input ? p->in_bounds : p->out_bounds;
    PyObject *rmap = st->is_input ? p->in_refs : p->out_refs;
    PyObject *bounds = PyDict_GetItemWithError(bmap, st->port_obj);
    if (bounds == NULL && PyErr_Occurred()) {
        PyErr_Clear();
        return 0;
    }
    PyObject *refs = NULL;
    if (bounds != NULL) {
        refs = PyDict_GetItemWithError(rmap, st->port_obj);
        if (refs == NULL) {
            PyErr_Clear();
            return 0;  /* bounds without refs: the twin raises KeyError */
        }
    }
    Py_XINCREF(bounds);
    Py_XINCREF(refs);
    st->bounds = bounds;
    st->refs = refs;

    Py_buffer bview;
    const double *bdata = NULL;
    Py_ssize_t blen = 0;
    int have_bview = 0;
    if (bounds != NULL) {
        if (PyObject_GetBuffer(bounds, &bview, PyBUF_SIMPLE) < 0) {
            PyErr_Clear();
            return 0;
        }
        have_bview = 1;
        bdata = (const double *)bview.buf;
        blen = (Py_ssize_t)(bview.len / (Py_ssize_t)sizeof(double));
    }

    if (blen == 0 || bdata[blen - 1] <= recs[0].start + eps) {
        /* Pure tail append: only the new items check against each
         * other. */
        if (have_bview)
            PyBuffer_Release(&bview);
        st->bdata = (double *)PyMem_Malloc((size_t)(2 * count) * sizeof(double));
        st->rdata = (int64_t *)PyMem_Malloc((size_t)count * sizeof(int64_t));
        if (st->bdata == NULL || st->rdata == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        double prev_end = -HUGE_VAL;
        for (Py_ssize_t k = 0; k < count; k++) {
            if (prev_end > recs[k].start + eps)
                return 0;  /* conflict: the twin raises it */
            st->bdata[2 * k] = recs[k].start;
            st->bdata[2 * k + 1] = recs[k].end;
            st->rdata[k] = recs[k].ref;
            prev_end = recs[k].end;
        }
        st->pairs = count;
        st->op = bounds == NULL ? 0 : 1;
        return 1;
    }

    /* Merge with the existing timeline. */
    Py_buffer rview;
    if (PyObject_GetBuffer(refs, &rview, PyBUF_SIMPLE) < 0) {
        PyErr_Clear();
        PyBuffer_Release(&bview);
        return 0;
    }
    const int64_t *rdata = (const int64_t *)rview.buf;
    Py_ssize_t n_exist = (Py_ssize_t)(rview.len / (Py_ssize_t)sizeof(int64_t));
    if (blen != 2 * n_exist) {
        PyBuffer_Release(&rview);
        PyBuffer_Release(&bview);
        return 0;
    }
    Py_ssize_t total = n_exist + count;
    st->bdata = (double *)PyMem_Malloc((size_t)(2 * total) * sizeof(double));
    st->rdata = (int64_t *)PyMem_Malloc((size_t)total * sizeof(int64_t));
    if (st->bdata == NULL || st->rdata == NULL) {
        PyBuffer_Release(&rview);
        PyBuffer_Release(&bview);
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t i = 0, k = 0, w = 0;
    double prev_end = -HUGE_VAL;
    int conflict = 0;
    while (i < n_exist || k < count) {
        double start, end;
        int64_t ref;
        /* Ties go to the new item, matching `_insert`'s bisect_left
         * placement of equal starts. */
        if (k < count && (i >= n_exist || recs[k].start <= bdata[2 * i])) {
            start = recs[k].start;
            end = recs[k].end;
            ref = recs[k].ref;
            k++;
        }
        else {
            start = bdata[2 * i];
            end = bdata[2 * i + 1];
            ref = rdata[i];
            i++;
        }
        if (prev_end > start + eps) {
            conflict = 1;
            break;
        }
        st->bdata[2 * w] = start;
        st->bdata[2 * w + 1] = end;
        st->rdata[w] = ref;
        prev_end = end;
        w++;
    }
    PyBuffer_Release(&rview);
    PyBuffer_Release(&bview);
    if (conflict)
        return 0;
    st->pairs = total;
    st->op = 2;
    return 1;
}

static PyObject *
native_prt_replay(PyObject *self, PyObject *args)
{
    PyObject *prt, *reservations;
    double eps;
    if (!PyArg_ParseTuple(args, "OOd:prt_replay", &prt, &reservations, &eps))
        return NULL;
    PrtRefs p;
    if (prt_refs_init(&p, prt) < 0)
        return NULL;
    PyObject *result = NULL;
    PyObject *seq = NULL;
    RRec *recs = NULL;
    double *ends_d = NULL;
    StagePort *stages = NULL;
    Py_ssize_t nstages = 0;

    seq = PySequence_Fast(reservations, "reservations must be a sequence");
    if (seq == NULL) {
        PyErr_Clear();
        result = Py_False;
        Py_INCREF(result);
        goto done;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    if (n == 0) {
        result = Py_True;
        Py_INCREF(result);
        goto done;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    Py_ssize_t base = PyList_GET_SIZE(p.journal);

    recs = (RRec *)PyMem_Malloc((size_t)(2 * n) * sizeof(RRec));
    ends_d = (double *)PyMem_Malloc((size_t)n * sizeof(double));
    if (recs == NULL || ends_d == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    ResReader rd;
    res_reader_init(&rd, Py_TYPE(items[0]));
    for (Py_ssize_t i = 0; i < n; i++) {
        double start, end;
        int64_t src, dst;
        if (res_read(&rd, items[i], &start, &end, &src, &dst) < 0) {
            PyErr_Clear();
            result = Py_False;
            Py_INCREF(result);
            goto done;
        }
        if (src < 0 || src > NATIVE_MAX_PORT || dst < 0 ||
            dst > NATIVE_MAX_PORT) {
            result = Py_False;
            Py_INCREF(result);
            goto done;
        }
        recs[2 * i].key = src * 2;
        recs[2 * i + 1].key = dst * 2 + 1;
        recs[2 * i].start = recs[2 * i + 1].start = start;
        recs[2 * i].end = recs[2 * i + 1].end = end;
        recs[2 * i].ref = recs[2 * i + 1].ref = base + i;
        ends_d[i] = end;
    }
    qsort(recs, (size_t)(2 * n), sizeof(RRec), rrec_cmp);

    stages = (StagePort *)PyMem_Calloc((size_t)(2 * n), sizeof(StagePort));
    if (stages == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_ssize_t a = 0;
    while (a < 2 * n) {
        Py_ssize_t runlen = 1;
        while (a + runlen < 2 * n && recs[a + runlen].key == recs[a].key)
            runlen++;
        int rv = stage_run(&p, recs + a, runlen, &stages[nstages], eps);
        nstages++;
        if (rv < 0)
            goto done;
        if (rv == 0) {
            result = Py_False;
            Py_INCREF(result);
            goto done;
        }
        a += runlen;
    }

    /* Apply.  Nothing above mutated the table; failures from here on are
     * OOM-class and raise. */
    for (Py_ssize_t s = 0; s < nstages; s++) {
        StagePort *st = &stages[s];
        Py_ssize_t bbytes = (Py_ssize_t)(2 * st->pairs) * (Py_ssize_t)sizeof(double);
        Py_ssize_t rbytes = (Py_ssize_t)st->pairs * (Py_ssize_t)sizeof(int64_t);
        if (st->op == 0) {
            PyObject *nb = array_from_bytes(typecode_d, st->bdata, bbytes);
            if (nb == NULL)
                goto done;
            PyObject *nr = array_from_bytes(typecode_q, st->rdata, rbytes);
            if (nr == NULL) {
                Py_DECREF(nb);
                goto done;
            }
            PyObject *bmap = st->is_input ? p.in_bounds : p.out_bounds;
            PyObject *rmap = st->is_input ? p.in_refs : p.out_refs;
            int rv = PyDict_SetItem(bmap, st->port_obj, nb);
            if (rv == 0)
                rv = PyDict_SetItem(rmap, st->port_obj, nr);
            Py_DECREF(nb);
            Py_DECREF(nr);
            if (rv < 0)
                goto done;
        }
        else if (st->op == 1) {
            if (extend_array_bytes(st->bounds, st->bdata, bbytes) < 0 ||
                extend_array_bytes(st->refs, st->rdata, rbytes) < 0)
                goto done;
        }
        else {
            if (assign_array(st->bounds, typecode_d, st->bdata, bbytes) < 0 ||
                assign_array(st->refs, typecode_q, st->rdata, rbytes) < 0)
                goto done;
        }
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        if (PyList_Append(p.journal, items[i]) < 0)
            goto done;
    }
    if (extend_array_bytes(p.ends, ends_d,
                           (Py_ssize_t)n * (Py_ssize_t)sizeof(double)) < 0)
        goto done;
    if (PyObject_SetAttr(prt, str__ends_sorted, Py_None) < 0)
        goto done;
    result = Py_True;
    Py_INCREF(result);
done:
    if (stages != NULL) {
        for (Py_ssize_t s = 0; s < nstages; s++) {
            Py_XDECREF(stages[s].port_obj);
            Py_XDECREF(stages[s].bounds);
            Py_XDECREF(stages[s].refs);
            PyMem_Free(stages[s].bdata);
            PyMem_Free(stages[s].rdata);
        }
        PyMem_Free(stages);
    }
    PyMem_Free(recs);
    PyMem_Free(ends_d);
    Py_XDECREF(seq);
    prt_refs_clear(&p);
    return result;
}

/* Construct one Reservation (start/end/src/dst objects are reused, not
 * re-created, so the result is identity-equivalent to the Python twin's
 * `Reservation(start=now, end=old.end, ...)`). */
static PyObject *
build_reservation(const ResReader *rd, PyObject *res_type, PyObject *start_obj,
                  PyObject *end_obj, PyObject *src_obj, PyObject *dst_obj,
                  PyObject *cid, PyObject *setup_obj)
{
    PyTypeObject *tp = (PyTypeObject *)res_type;
    PyObject *res = tp->tp_new(tp, empty_tuple, NULL);
    if (res == NULL)
        return NULL;
    if (rd->offs_ok && Py_TYPE(res) == rd->tp) {
        char *basep = (char *)res;
        Py_INCREF(start_obj);
        *(PyObject **)(basep + rd->offs.start) = start_obj;
        Py_INCREF(end_obj);
        *(PyObject **)(basep + rd->offs.end) = end_obj;
        Py_INCREF(src_obj);
        *(PyObject **)(basep + rd->offs.src) = src_obj;
        Py_INCREF(dst_obj);
        *(PyObject **)(basep + rd->offs.dst) = dst_obj;
        Py_INCREF(cid);
        *(PyObject **)(basep + rd->offs.coflow_id) = cid;
        Py_INCREF(setup_obj);
        *(PyObject **)(basep + rd->offs.setup) = setup_obj;
    }
    else if (PyObject_SetAttr(res, str_start, start_obj) < 0 ||
             PyObject_SetAttr(res, str_end, end_obj) < 0 ||
             PyObject_SetAttr(res, str_src, src_obj) < 0 ||
             PyObject_SetAttr(res, str_dst, dst_obj) < 0 ||
             PyObject_SetAttr(res, str_coflow_id, cid) < 0 ||
             PyObject_SetAttr(res, str_setup, setup_obj) < 0) {
        Py_DECREF(res);
        return NULL;
    }
    return res;
}

/* `PortReservationTable.input_reservation_at` (is_input) /
 * `output_reservation_at`, reduced to "does the covering reservation
 * count for the blocked-at-now proof".  Returns 1 (counts), 0 (no
 * covering reservation, or its coflow is not in above_ids), or -1 to
 * decline the whole transform (errors are cleared — nothing has been
 * mutated). */
static int
covering_check(PrtRefs *p, const ResReader *rd, int is_input, int64_t port,
               double t_eps, PyObject *above_ids)
{
    PyObject *port_obj = PyLong_FromLongLong((long long)port);
    if (port_obj == NULL) {
        PyErr_Clear();
        return -1;
    }
    PyObject *bmap = is_input ? p->in_bounds : p->out_bounds;
    PyObject *rmap = is_input ? p->in_refs : p->out_refs;
    PyObject *bounds = PyDict_GetItemWithError(bmap, port_obj);
    if (bounds == NULL) {
        Py_DECREF(port_obj);
        if (PyErr_Occurred()) {
            PyErr_Clear();
            return -1;
        }
        return 0;
    }
    Py_buffer bview;
    if (PyObject_GetBuffer(bounds, &bview, PyBUF_SIMPLE) < 0) {
        PyErr_Clear();
        Py_DECREF(port_obj);
        return -1;
    }
    Py_ssize_t blen = (Py_ssize_t)(bview.len / (Py_ssize_t)sizeof(double));
    Py_ssize_t idx =
        blen ? bisect_right_d((const double *)bview.buf, blen, t_eps) : 0;
    PyBuffer_Release(&bview);
    if (blen == 0 || (idx & 1) == 0) {
        Py_DECREF(port_obj);
        return 0;
    }
    PyObject *refs = PyDict_GetItemWithError(rmap, port_obj);
    Py_DECREF(port_obj);
    if (refs == NULL) {
        PyErr_Clear();
        return -1;
    }
    Py_buffer rview;
    if (PyObject_GetBuffer(refs, &rview, PyBUF_SIMPLE) < 0) {
        PyErr_Clear();
        return -1;
    }
    Py_ssize_t ri = idx >> 1;
    Py_ssize_t rlen = (Py_ssize_t)(rview.len / (Py_ssize_t)sizeof(int64_t));
    int64_t ref = -1;
    if (ri < rlen)
        ref = ((const int64_t *)rview.buf)[ri];
    PyBuffer_Release(&rview);
    if (ref < 0 || ref >= PyList_GET_SIZE(p->journal))
        return -1;
    if (above_ids == Py_None)
        return 1;
    PyObject *cf = res_field(rd, PyList_GET_ITEM(p->journal, ref),
                             rd->offs.coflow_id, str_coflow_id);
    if (cf == NULL) {
        PyErr_Clear();
        return -1;
    }
    int in = PySequence_Contains(above_ids, cf);
    Py_DECREF(cf);
    if (in < 0) {
        PyErr_Clear();
        return -1;
    }
    return in ? 1 : 0;
}

static PyObject *
native_transform_continuation(PyObject *self, PyObject *args)
{
    PyObject *prt, *res_type, *cid, *res_seq_obj, *established, *remaining,
        *banked, *above_ids;
    double now, delta, eps;
    Py_ssize_t cutoff;
    if (!PyArg_ParseTuple(args, "OOOdddOnOOOO:transform_continuation", &prt,
                          &res_type, &cid, &now, &delta, &eps, &res_seq_obj,
                          &cutoff, &established, &remaining, &banked,
                          &above_ids))
        return NULL;
    if (!PyType_Check(res_type) || !PyDict_Check(established) ||
        !PyDict_Check(remaining))
        Py_RETURN_FALSE;
    int banked_empty = PyAnySet_Check(banked) && PySet_GET_SIZE(banked) == 0;

    PrtRefs p;
    if (prt_refs_init(&p, prt) < 0) {
        PyErr_Clear();
        Py_RETURN_FALSE;
    }
    PyObject *seq = PySequence_Fast(res_seq_obj, "reservations must be a sequence");
    if (seq == NULL) {
        PyErr_Clear();
        prt_refs_clear(&p);
        Py_RETURN_FALSE;
    }
    Py_ssize_t nres = PySequence_Fast_GET_SIZE(seq);
    if (cutoff < 0)
        cutoff = 0;
    if (cutoff > nres)
        cutoff = nres;

    ResReader rd;
    res_reader_init(&rd, (PyTypeObject *)res_type);

    int fail = 0, decline = 0, error = 0;
    PyObject *result = NULL;
    PyObject *heads = NULL, *now_obj = NULL, *delta_obj = NULL;
    int64_t *head_src = NULL, *head_dst = NULL;
    Py_ssize_t nheads = 0;
    ISet pending;
    pending.keys = NULL;

    heads = PyList_New(0);
    now_obj = PyFloat_FromDouble(now);
    delta_obj = PyFloat_FromDouble(delta);
    size_t head_alloc = (size_t)(cutoff > 0 ? cutoff : 1);
    head_src = (int64_t *)PyMem_Malloc(head_alloc * sizeof(int64_t));
    head_dst = (int64_t *)PyMem_Malloc(head_alloc * sizeof(int64_t));
    if (heads == NULL || now_obj == NULL || delta_obj == NULL ||
        head_src == NULL || head_dst == NULL) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        error = 1;
        goto done;
    }
    if (iset_init(&pending, (size_t)(nres - cutoff) + 1) < 0) {
        error = 1;
        goto done;
    }

    /* Established heads: every reservation covering `now` must be an
     * anchored established circuit whose recomputed continuation lands
     * on its end exactly. */
    for (Py_ssize_t i = 0; i < cutoff && !fail && !decline; i++) {
        PyObject *old = PySequence_Fast_GET_ITEM(seq, i);
        PyObject *end_obj = res_field(&rd, old, rd.offs.end, str_end);
        if (end_obj == NULL) {
            PyErr_Clear();
            decline = 1;
            break;
        }
        if (!PyFloat_CheckExact(end_obj)) {
            Py_DECREF(end_obj);
            decline = 1;
            break;
        }
        double end_d = PyFloat_AS_DOUBLE(end_obj);
        if (now >= end_d - eps) {
            Py_DECREF(end_obj);
            continue;  /* fully in the past: constrains nothing ahead */
        }
        PyObject *src_obj = res_field(&rd, old, rd.offs.src, str_src);
        PyObject *dst_obj =
            src_obj ? res_field(&rd, old, rd.offs.dst, str_dst) : NULL;
        if (src_obj == NULL || dst_obj == NULL) {
            PyErr_Clear();
            Py_XDECREF(src_obj);
            Py_XDECREF(end_obj);
            decline = 1;
            break;
        }
        int64_t src = PyLong_CheckExact(src_obj)
                          ? (int64_t)PyLong_AsLongLong(src_obj)
                          : -1;
        int64_t dst = PyLong_CheckExact(dst_obj)
                          ? (int64_t)PyLong_AsLongLong(dst_obj)
                          : -1;
        if (PyErr_Occurred() || src < 0 || src > NATIVE_MAX_PORT || dst < 0 ||
            dst > NATIVE_MAX_PORT) {
            PyErr_Clear();
            Py_DECREF(src_obj);
            Py_DECREF(dst_obj);
            Py_DECREF(end_obj);
            decline = 1;
            break;
        }
        int dup = 0;
        for (Py_ssize_t j = 0; j < nheads; j++) {
            if (head_src[j] == src) {
                dup = 1;
                break;
            }
        }
        PyObject *key = PyTuple_Pack(2, src_obj, dst_obj);
        if (key == NULL) {
            Py_DECREF(src_obj);
            Py_DECREF(dst_obj);
            Py_DECREF(end_obj);
            error = 1;
            break;
        }
        PyObject *est = PyDict_GetItemWithError(established, key);
        if (est == NULL && PyErr_Occurred()) {
            PyErr_Clear();
            Py_DECREF(key);
            Py_DECREF(src_obj);
            Py_DECREF(dst_obj);
            Py_DECREF(end_obj);
            decline = 1;
            break;
        }
        if (est == NULL || dup) {
            Py_DECREF(key);
            Py_DECREF(src_obj);
            Py_DECREF(dst_obj);
            Py_DECREF(end_obj);
            fail = 1;
            break;
        }
        Py_INCREF(est);
        if (!PyTuple_Check(est) || PyTuple_GET_SIZE(est) != 2 ||
            !PyFloat_CheckExact(PyTuple_GET_ITEM(est, 0))) {
            Py_DECREF(est);
            Py_DECREF(key);
            Py_DECREF(src_obj);
            Py_DECREF(dst_obj);
            Py_DECREF(end_obj);
            decline = 1;
            break;
        }
        PyObject *est0_obj = PyTuple_GET_ITEM(est, 0);
        PyObject *est1_obj = PyTuple_GET_ITEM(est, 1);
        /* est[1] != old.end — the anchor must be the float equal to the
         * old end (None or a foreign type can never compare equal). */
        int anchor_ok = PyFloat_CheckExact(est1_obj) &&
                        PyFloat_AS_DOUBLE(est1_obj) == end_d;
        if (!anchor_ok && est1_obj != Py_None &&
            !PyFloat_CheckExact(est1_obj)) {
            Py_DECREF(est);
            Py_DECREF(key);
            Py_DECREF(src_obj);
            Py_DECREF(dst_obj);
            Py_DECREF(end_obj);
            decline = 1;
            break;
        }
        double rem = 0.0;
        PyObject *remv = PyDict_GetItemWithError(remaining, key);
        Py_DECREF(key);
        if (remv == NULL && PyErr_Occurred()) {
            PyErr_Clear();
            Py_DECREF(est);
            Py_DECREF(src_obj);
            Py_DECREF(dst_obj);
            Py_DECREF(end_obj);
            decline = 1;
            break;
        }
        if (remv != NULL) {
            rem = PyFloat_AsDouble(remv);
            if (rem == -1.0 && PyErr_Occurred()) {
                PyErr_Clear();
                Py_DECREF(est);
                Py_DECREF(src_obj);
                Py_DECREF(dst_obj);
                Py_DECREF(end_obj);
                decline = 1;
                break;
            }
        }
        double est0 = PyFloat_AS_DOUBLE(est0_obj);
        double setup = est0 < delta ? est0 : delta;  /* min(delta, est[0]) */
        if (!anchor_ok || rem <= eps ||
            fabs(now + (setup + rem) - end_d) > eps) {
            Py_DECREF(est);
            Py_DECREF(src_obj);
            Py_DECREF(dst_obj);
            Py_DECREF(end_obj);
            fail = 1;
            break;
        }
        PyObject *setup_obj = est0 < delta ? est0_obj : delta_obj;
        PyObject *head = build_reservation(&rd, res_type, now_obj, end_obj,
                                           src_obj, dst_obj, cid, setup_obj);
        Py_DECREF(est);
        Py_DECREF(src_obj);
        Py_DECREF(dst_obj);
        Py_DECREF(end_obj);
        if (head == NULL) {
            error = 1;
            break;
        }
        int rv = PyList_Append(heads, head);
        Py_DECREF(head);
        if (rv < 0) {
            error = 1;
            break;
        }
        head_src[nheads] = src;
        head_dst[nheads] = dst;
        nheads++;
    }
    if (!fail && !decline && !error && nheads != PyDict_Size(established))
        fail = 1;

    /* Future reservations: every one must be provably blocked at `now`
     * (by one of this Coflow's own preceding heads, or by a covering
     * reservation of a layer above). */
    for (Py_ssize_t i = cutoff; i < nres && !fail && !decline && !error; i++) {
        PyObject *fut = PySequence_Fast_GET_ITEM(seq, i);
        int64_t src, dst;
        if (res_read(&rd, fut, NULL, NULL, &src, &dst) < 0) {
            PyErr_Clear();
            decline = 1;
            break;
        }
        if (src < 0 || src > NATIVE_MAX_PORT || dst < 0 ||
            dst > NATIVE_MAX_PORT) {
            decline = 1;
            break;
        }
        int64_t ckey = (src << 32) | dst;
        if (iset_has(&pending, ckey))
            continue;
        int have_hd = 0;
        int64_t hd = -1;
        for (Py_ssize_t j = 0; j < nheads; j++) {
            if (head_src[j] == src) {
                have_hd = 1;
                hd = head_dst[j];
                break;
            }
        }
        if (have_hd && hd == dst) {
            fail = 1;  /* overflow of an established circuit */
            break;
        }
        if (!banked_empty) {
            PyObject *key = Py_BuildValue("(LL)", (long long)src,
                                          (long long)dst);
            if (key == NULL) {
                error = 1;
                break;
            }
            int in = PySequence_Contains(banked, key);
            Py_DECREF(key);
            if (in < 0) {
                PyErr_Clear();
                decline = 1;
                break;
            }
            if (in) {
                fail = 1;  /* re-banked since the plan was computed */
                break;
            }
        }
        if (have_hd && hd < dst) {
            iset_add(&pending, ckey);
            continue;
        }
        int have_hs = 0;
        int64_t hs = -1;
        for (Py_ssize_t j = 0; j < nheads; j++) {
            if (head_dst[j] == dst) {
                have_hs = 1;
                hs = head_src[j];
                break;
            }
        }
        if (have_hs && hs < src) {
            iset_add(&pending, ckey);
            continue;
        }
        int covered = covering_check(&p, &rd, 1, src, now + eps, above_ids);
        if (covered == 0)
            covered = covering_check(&p, &rd, 0, dst, now + eps, above_ids);
        if (covered < 0) {
            decline = 1;
            break;
        }
        if (covered == 0) {
            fail = 1;  /* free on both ports: the recompute could diverge */
            break;
        }
        iset_add(&pending, ckey);
    }

    /* The demand the plan serves must cover exactly the circuits with
     * remaining demand. */
    if (!fail && !decline && !error) {
        Py_ssize_t pos = 0;
        PyObject *k, *v;
        while (PyDict_Next(remaining, &pos, &k, &v)) {
            double rem = PyFloat_AsDouble(v);
            if (rem == -1.0 && PyErr_Occurred()) {
                PyErr_Clear();
                decline = 1;
                break;
            }
            if (rem <= eps)
                continue;
            if (!PyTuple_Check(k) || PyTuple_GET_SIZE(k) != 2 ||
                !PyLong_CheckExact(PyTuple_GET_ITEM(k, 0)) ||
                !PyLong_CheckExact(PyTuple_GET_ITEM(k, 1))) {
                decline = 1;
                break;
            }
            int64_t cs = (int64_t)PyLong_AsLongLong(PyTuple_GET_ITEM(k, 0));
            int64_t cd = (int64_t)PyLong_AsLongLong(PyTuple_GET_ITEM(k, 1));
            if (PyErr_Occurred() || cs < 0 || cs > NATIVE_MAX_PORT || cd < 0 ||
                cd > NATIVE_MAX_PORT) {
                PyErr_Clear();
                decline = 1;
                break;
            }
            if (iset_has(&pending, (cs << 32) | cd))
                continue;
            int served = 0;
            for (Py_ssize_t j = 0; j < nheads; j++) {
                if (head_src[j] == cs) {
                    served = head_dst[j] == cd;
                    break;
                }
            }
            if (!served) {
                fail = 1;
                break;
            }
        }
    }

done:
    if (error)
        result = NULL;
    else if (decline) {
        result = Py_False;
        Py_INCREF(result);
    }
    else if (fail) {
        result = Py_None;
        Py_INCREF(result);
    }
    else {
        result = heads;
        heads = NULL;  /* transfer */
    }
    Py_XDECREF(heads);
    Py_XDECREF(now_obj);
    Py_XDECREF(delta_obj);
    PyMem_Free(head_src);
    PyMem_Free(head_dst);
    iset_free(&pending);
    Py_DECREF(seq);
    prt_refs_clear(&p);
    return result;
}

/* ------------------------------------------------------------------ */
/* Entry point                                                         */
/* ------------------------------------------------------------------ */

static PyObject *
native_schedule_demand(PyObject *self, PyObject *args)
{
    PyObject *prt, *res_type, *coflow_id, *entries_list, *out_list;
    double start_time, delta, eps;
    int has_established;
    if (!PyArg_ParseTuple(args, "OOOdddpO!O!:schedule_demand", &prt, &res_type,
                          &coflow_id, &start_time, &delta, &eps,
                          &has_established, &PyList_Type, &entries_list,
                          &PyList_Type, &out_list))
        return NULL;
    if (!PyType_Check(res_type)) {
        PyErr_SetString(PyExc_TypeError, "res_type must be a class");
        return NULL;
    }
    Ctx c;
    memset(&c, 0, sizeof(Ctx));
    int rv = ctx_init(&c, prt, res_type, coflow_id, start_time, delta, eps,
                      has_established, entries_list, out_list);
    if (rv == 0)
        rv = run_schedule(&c);
    ctx_free(&c);
    if (rv < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* Fused `_pack_demand` + scheduling loop: consumes a PackedDemand's
 * pre-sorted columns directly, so the per-plan sort and tuple packing
 * disappear from the Python side.  The columns are sorted by (src, dst)
 * — exactly `sorted(demand_times.items())` — so filtering them in order
 * reproduces the packed-entry list verbatim. */
static PyObject *
native_schedule_demand_packed(PyObject *self, PyObject *args)
{
    PyObject *prt, *res_type, *coflow_id, *srcs, *dsts, *vals, *established,
        *out_list;
    double start_time, delta, eps;
    if (!PyArg_ParseTuple(args, "OOOdddOOOOO!:schedule_demand_packed", &prt,
                          &res_type, &coflow_id, &start_time, &delta, &eps,
                          &srcs, &dsts, &vals, &established, &PyList_Type,
                          &out_list))
        return NULL;
    if (!PyType_Check(res_type)) {
        PyErr_SetString(PyExc_TypeError, "res_type must be a class");
        return NULL;
    }
    int has_est = established != Py_None;
    if (has_est && !PyDict_Check(established)) {
        PyErr_SetString(PyExc_TypeError,
                        "established must be a dict or None");
        return NULL;
    }
    Py_buffer sv, dv, vv;
    if (PyObject_GetBuffer(srcs, &sv, PyBUF_SIMPLE) < 0)
        return NULL;
    if (PyObject_GetBuffer(dsts, &dv, PyBUF_SIMPLE) < 0) {
        PyBuffer_Release(&sv);
        return NULL;
    }
    if (PyObject_GetBuffer(vals, &vv, PyBUF_SIMPLE) < 0) {
        PyBuffer_Release(&dv);
        PyBuffer_Release(&sv);
        return NULL;
    }
    Py_ssize_t n_all = (Py_ssize_t)(sv.len / (Py_ssize_t)sizeof(int64_t));
    if ((Py_ssize_t)(dv.len / (Py_ssize_t)sizeof(int64_t)) != n_all ||
        (Py_ssize_t)(vv.len / (Py_ssize_t)sizeof(double)) != n_all) {
        PyBuffer_Release(&vv);
        PyBuffer_Release(&dv);
        PyBuffer_Release(&sv);
        PyErr_SetString(PyExc_TypeError,
                        "packed demand columns disagree in length");
        return NULL;
    }
    CEntry *entries = (CEntry *)PyMem_Calloc(
        (size_t)(n_all > 0 ? n_all : 1), sizeof(CEntry));
    if (entries == NULL) {
        PyBuffer_Release(&vv);
        PyBuffer_Release(&dv);
        PyBuffer_Release(&sv);
        PyErr_NoMemory();
        return NULL;
    }
    const int64_t *src_col = (const int64_t *)sv.buf;
    const int64_t *dst_col = (const int64_t *)dv.buf;
    const double *val_col = (const double *)vv.buf;
    Py_ssize_t kept = 0;
    for (Py_ssize_t i = 0; i < n_all; i++) {
        if (val_col[i] > eps) {
            CEntry *e = &entries[kept];
            e->src = src_col[i];
            e->dst = dst_col[i];
            e->remaining = val_col[i];
            e->has_est = 0;
            e->setup_left = 0.0;
            e->anchor = NAN;
            e->index = (int32_t)kept;
            kept++;
        }
    }
    PyBuffer_Release(&vv);
    PyBuffer_Release(&dv);
    PyBuffer_Release(&sv);
    if (kept > INT32_MAX) {
        PyMem_Free(entries);
        PyErr_SetString(PyExc_OverflowError, "too many demand entries");
        return NULL;
    }
    if (kept == 0) {
        /* Mirrors the Python `if not entries: return schedule` — the
         * table is untouched and nothing is planned. */
        PyMem_Free(entries);
        return PyLong_FromLong(0);
    }
    if (has_est) {
        for (Py_ssize_t i = 0; i < kept; i++) {
            CEntry *e = &entries[i];
            PyObject *key = Py_BuildValue("(LL)", (long long)e->src,
                                          (long long)e->dst);
            if (key == NULL) {
                PyMem_Free(entries);
                return NULL;
            }
            PyObject *est = PyDict_GetItemWithError(established, key);
            Py_DECREF(key);
            if (est == NULL) {
                if (PyErr_Occurred()) {
                    PyMem_Free(entries);
                    return NULL;
                }
                continue;
            }
            if (!PyTuple_Check(est) || PyTuple_GET_SIZE(est) != 2) {
                PyMem_Free(entries);
                PyErr_SetString(PyExc_TypeError,
                                "established values must be "
                                "(setup_left, anchor) pairs");
                return NULL;
            }
            e->has_est = 1;
            e->setup_left = PyFloat_AsDouble(PyTuple_GET_ITEM(est, 0));
            if (e->setup_left == -1.0 && PyErr_Occurred()) {
                PyMem_Free(entries);
                return NULL;
            }
            PyObject *anchor = PyTuple_GET_ITEM(est, 1);
            if (anchor == Py_None)
                e->anchor = NAN;
            else {
                e->anchor = PyFloat_AsDouble(anchor);
                if (e->anchor == -1.0 && PyErr_Occurred()) {
                    PyMem_Free(entries);
                    return NULL;
                }
            }
        }
    }
    Ctx c;
    memset(&c, 0, sizeof(Ctx));
    c.entries = entries;
    c.nentries = kept;
    c.outstanding = kept;
    int rv = ctx_attach(&c, prt, res_type, coflow_id, start_time, delta, eps,
                        has_est, out_list);
    if (rv == 0)
        rv = ctx_build_slots(&c);
    if (rv == 0)
        rv = run_schedule(&c);
    ctx_free(&c);  /* frees `entries` too */
    if (rv < 0)
        return NULL;
    return PyLong_FromSsize_t(kept);
}

static PyMethodDef native_methods[] = {
    {"schedule_demand", native_schedule_demand, METH_VARARGS,
     "schedule_demand(prt, reservation_cls, coflow_id, start_time, delta, "
     "eps, has_established, entries, out_reservations)\n\n"
     "Compiled twin of SunflowScheduler's event-driven scheduling loop.\n"
     "Mutates the PRT and appends the planned Reservation objects to\n"
     "out_reservations, bit-identically to the pure-Python loop."},
    {"schedule_demand_packed", native_schedule_demand_packed, METH_VARARGS,
     "schedule_demand_packed(prt, reservation_cls, coflow_id, start_time, "
     "delta, eps, srcs, dsts, vals, established_or_None, out_reservations)"
     "\n\n"
     "schedule_demand fused with _pack_demand: consumes a PackedDemand's\n"
     "sorted (srcs, dsts, vals) columns directly.  Returns the number of\n"
     "entries with demand above eps (0 means nothing was planned)."},
    {"prt_rollback", native_prt_rollback, METH_VARARGS,
     "prt_rollback(prt, token)\n\n"
     "Batched PortReservationTable.rollback: truncates the journal and\n"
     "ends column to `token` and strips every touched port timeline in\n"
     "one pass.  Returns the number of reservations undone."},
    {"prt_replay", native_prt_replay, METH_VARARGS,
     "prt_replay(prt, reservations, eps)\n\n"
     "Batched PortReservationTable.replay: validates and merges the\n"
     "batch into each port timeline in one call.  Returns True on\n"
     "success; returns False (table untouched) on conflict or any\n"
     "unexpected input so the Python twin can re-run and raise the\n"
     "byte-identical error."},
    {"transform_continuation", native_transform_continuation, METH_VARARGS,
     "transform_continuation(prt, reservation_cls, coflow_id, now, delta, "
     "eps, reservations, cutoff, established, remaining, banked, above_ids)"
     "\n\n"
     "The incremental replanner's continuation-transform proof on the\n"
     "PRT's array buffers.  Returns the rebuilt head reservations on\n"
     "success, None when a proof obligation fails (caller recomputes),\n"
     "or False to decline to the pure-Python twin.  Never mutates the\n"
     "table."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "repro._native",
    "Compiled Sunflow planner kernel (see repro/core/sunflow.py).",
    -1,
    native_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
#define INTERN(var, s)                                                        \
    do {                                                                      \
        var = PyUnicode_InternFromString(s);                                  \
        if (var == NULL)                                                      \
            return NULL;                                                      \
    } while (0)
    INTERN(str__in_bounds, "_in_bounds");
    INTERN(str__in_refs, "_in_refs");
    INTERN(str__out_bounds, "_out_bounds");
    INTERN(str__out_refs, "_out_refs");
    INTERN(str__reservations, "_reservations");
    INTERN(str__ends, "_ends");
    INTERN(str__ends_sorted, "_ends_sorted");
    INTERN(str_insert, "insert");
    INTERN(str_append, "append");
    INTERN(str_frombytes, "frombytes");
    INTERN(str_src, "src");
    INTERN(str_dst, "dst");
    INTERN(str_start, "start");
    INTERN(str_end, "end");
    INTERN(str_coflow_id, "coflow_id");
    INTERN(str_setup, "setup");
#undef INTERN
    typecode_d = PyUnicode_InternFromString("d");
    typecode_q = PyUnicode_InternFromString("q");
    if (typecode_d == NULL || typecode_q == NULL)
        return NULL;
    empty_tuple = PyTuple_New(0);
    if (empty_tuple == NULL)
        return NULL;
    PyObject *array_mod = PyImport_ImportModule("array");
    if (array_mod == NULL)
        return NULL;
    array_type = PyObject_GetAttrString(array_mod, "array");
    Py_DECREF(array_mod);
    if (array_type == NULL)
        return NULL;
    PyObject *mod = PyModule_Create(&native_module);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddIntConstant(mod, "LAYOUT_VERSION", NATIVE_LAYOUT_VERSION) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
