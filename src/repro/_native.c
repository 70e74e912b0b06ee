/* Native planner kernel: Algorithm 1's InterCoflow loop, one call per replan.
 *
 * `schedule_many_packed` is the compiled twin of the event-driven
 * scheduling loop in `repro/core/sunflow.py` (`SunflowScheduler._plan_python`),
 * run over a whole priority-ordered batch of Coflows in one call.  It
 * works on the PortReservationTable's struct-of-arrays storage — the
 * per-port `array('d')` interleaved boundary arrays and `array('q')`
 * journal-ref arrays documented in `repro/core/prt.py` — in three steps:
 *
 *   1. validate every batch item, then copy the timelines of every port
 *      the batch touches into kernel memory once;
 *   2. plan each Coflow, in batch order, on those copies: a reservation's
 *      boundary and ref inserts are `memmove`s, and each Coflow sees the
 *      reservations of the ones before it;
 *   3. write each grown timeline back into its array once, then extend
 *      the journal and `_ends` and clear `_ends_sorted`.
 *
 * A malformed item raises in step 1 with the table untouched.  An error
 * in step 2 still runs step 3 before it propagates, so the table then
 * holds exactly what writing each reservation as it was made would have
 * left.  The scheduler holds the GIL throughout, and nothing else
 * mutates the table during a call.
 *
 * `port_bottleneck` is the compiled twin of `CoflowView.bottleneck`
 * (`repro/core/policies.py`), the shortest-first ordering scan.
 *
 * Bitwise contract: every float expression is kept verbatim from the
 * Python loops — same operand order, double precision throughout, and the
 * extension is compiled with `-ffp-contract=off` so no FMA contraction
 * can change a rounding.  The differential suites in
 * `tests/kernels/test_native_planner.py` fuzz this module against the
 * Python loops and require byte-identical reservations, tables and loads.
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
 *     unique, so the selection sequence is identical);
 *   - the bottleneck scan keeps per-port loads in a hash table instead of
 *     a dict (each port's sum still accumulates in iteration order, and
 *     the max of positive loads does not depend on their order).
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
    *str_frombytes, *str_src, *str_dst, *str_start, *str_end,
    *str_coflow_id, *str_setup;
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
    PyObject *bounds;         /* the table's array('d'), strong; NULL if absent */
    PyObject *refs;           /* the table's array('q'), strong; NULL if absent */
    double *bdata;            /* kernel copy of the boundaries */
    int64_t *rdata;           /* kernel copy of the journal refs (blen / 2) */
    Py_ssize_t blen;          /* boundaries held */
    Py_ssize_t bcap;          /* boundaries allocated (even; rdata holds bcap / 2) */
    Py_ssize_t blen0;         /* boundaries in the table's array at copy-in */
    int64_t taken_epoch;      /* == ctx epoch: port taken this batch */
    int64_t rel_epoch;        /* == ctx epoch: collected this batch, or
                                 seeded for the Coflow being planned */
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
    int32_t index;            /* == order_index (position in its Coflow) */
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

/* One batch item: a Coflow's entries in consideration order. */
typedef struct {
    PyObject *coflow_id;      /* borrowed from the batch snapshot */
    PyObject *out_list;       /* borrowed */
    Py_ssize_t first, n;      /* its entries: all_entries[first, first + n) */
    int has_est;
} Item;

/* Offsets of the Reservation __slots__, resolved once per call from the
 * class's member descriptors; when the class is not a plain slots
 * dataclass (offs_ok == 0) construction falls back to PyObject_SetAttr. */
typedef struct {
    Py_ssize_t start, end, src, dst, coflow_id, setup;
} ResOffsets;

typedef struct {
    PyObject *prt;            /* borrowed */
    PyObject *res_type;       /* borrowed */
    double start_time, delta, eps;
    PyObject *in_bounds_map, *in_refs_map;    /* strong */
    PyObject *out_bounds_map, *out_refs_map;  /* strong */
    PyObject *journal;        /* list, strong */
    PyObject *ends;           /* array('d'), strong */
    PyObject *delta_obj;      /* PyFloat(delta), strong */
    Py_ssize_t journal0;      /* journal length when the call began */
    /* Reservations made by this call, in journal order. */
    PyObject *made;           /* list, strong */
    int64_t *made_src, *made_dst;
    double *made_end;
    Py_ssize_t made_cap;
    Slot *slots;              /* every port the batch touches, by key */
    Py_ssize_t nslots;
    CEntry *all_entries;
    Py_ssize_t nall, all_cap;
    Item *items;
    Py_ssize_t nitems;
    /* The Coflow being planned. */
    PyObject *coflow_id;      /* borrowed */
    PyObject *out_list;       /* borrowed */
    int has_established;
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

/* Room for one more reservation on the slot's timeline copy. */
static int
slot_reserve(Slot *s)
{
    if (s->blen + 2 <= s->bcap)
        return 0;
    Py_ssize_t cap = s->bcap ? 2 * s->bcap : 16;
    double *b = (double *)PyMem_Realloc(s->bdata, (size_t)cap * sizeof(double));
    if (b == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    s->bdata = b;
    int64_t *r = (int64_t *)PyMem_Realloc(s->rdata, (size_t)(cap / 2) * sizeof(int64_t));
    if (r == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    s->rdata = r;
    s->bcap = cap;
    return 0;
}

/* The Python loop's `bounds.insert(k, end); bounds.insert(k, t);
 * refs.insert(k >> 1, idx)` on the kernel copy (k is even: the port is
 * free there).  Room was made by `slot_reserve`. */
static void
slot_insert(Slot *s, Py_ssize_t k, double t, double end, int64_t idx)
{
    memmove(s->bdata + k + 2, s->bdata + k, (size_t)(s->blen - k) * sizeof(double));
    s->bdata[k] = t;
    s->bdata[k + 1] = end;
    Py_ssize_t j = k >> 1;
    memmove(s->rdata + j + 1, s->rdata + j,
            (size_t)((s->blen >> 1) - j) * sizeof(int64_t));
    s->rdata[j] = idx;
    s->blen += 2;
}

/* Copy one port's timeline out of the table (step 1), checking it has
 * the documented layout. */
static int
slot_copy_in(Slot *s, PyObject *bounds, PyObject *refs)
{
    if (!PyObject_TypeCheck(bounds, (PyTypeObject *)array_type) ||
        !PyObject_TypeCheck(refs, (PyTypeObject *)array_type)) {
        PyErr_Format(PyExc_TypeError,
                     "PRT port %lld: timelines must be arrays", (long long)s->port);
        return -1;
    }
    Py_buffer bv, rv;
    if (PyObject_GetBuffer(bounds, &bv, PyBUF_FORMAT) < 0)
        return -1;
    if (PyObject_GetBuffer(refs, &rv, PyBUF_FORMAT) < 0) {
        PyBuffer_Release(&bv);
        return -1;
    }
    Py_ssize_t blen = bv.len / (Py_ssize_t)sizeof(double);
    int rc = -1;
    if (strcmp(bv.format, "d") != 0 || strcmp(rv.format, "q") != 0 || (blen & 1) ||
        rv.len / (Py_ssize_t)sizeof(int64_t) != blen / 2) {
        PyErr_Format(PyExc_RuntimeError,
                     "PRT port %lld: bounds/refs arrays do not match the layout",
                     (long long)s->port);
        goto done;
    }
    s->bdata = (double *)PyMem_Malloc((size_t)(blen ? blen : 1) * sizeof(double));
    s->rdata = (int64_t *)PyMem_Malloc((size_t)(blen ? blen / 2 : 1) * sizeof(int64_t));
    if (s->bdata == NULL || s->rdata == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    memcpy(s->bdata, bv.buf, (size_t)blen * sizeof(double));
    memcpy(s->rdata, rv.buf, (size_t)(blen / 2) * sizeof(int64_t));
    s->blen = s->blen0 = s->bcap = blen;
    rc = 0;
done:
    PyBuffer_Release(&rv);
    PyBuffer_Release(&bv);
    return rc;
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
    return 0;
}

/* ------------------------------------------------------------------ */
/* Write-back (step 3)                                                 */
/* ------------------------------------------------------------------ */

/* Append `nbytes` of raw `data` to an array (`arr.frombytes`). */
static int
array_extend(PyObject *arr, const void *data, Py_ssize_t nbytes)
{
    PyObject *view = PyMemoryView_FromMemory((char *)data, nbytes, PyBUF_READ);
    if (view == NULL)
        return -1;
    PyObject *r = PyObject_CallMethodOneArg(arr, str_frombytes, view);
    Py_DECREF(view);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Make an array of n0 items equal the kernel's n items: append the tail,
 * then overwrite the head (inserts may have shifted it). */
static int
array_store(PyObject *arr, const void *data, Py_ssize_t n0, Py_ssize_t n,
            Py_ssize_t size)
{
    if (array_extend(arr, (const char *)data + n0 * size, (n - n0) * size) < 0)
        return -1;
    if (n0 == 0)
        return 0;
    Py_buffer view;
    if (PyObject_GetBuffer(arr, &view, PyBUF_WRITABLE) < 0)
        return -1;
    if (view.len != n * size) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_RuntimeError, "PRT array resized during a plan");
        return -1;
    }
    memcpy(view.buf, data, (size_t)(n0 * size));
    PyBuffer_Release(&view);
    return 0;
}

static int
write_back(Ctx *c)
{
    for (Py_ssize_t i = 0; i < c->nslots; i++) {
        Slot *s = &c->slots[i];
        if (s->blen == s->blen0)
            continue;
        if (s->bounds == NULL && slot_create_arrays(c, s) < 0)
            return -1;
        if (array_store(s->bounds, s->bdata, s->blen0, s->blen, sizeof(double)) < 0 ||
            array_store(s->refs, s->rdata, s->blen0 >> 1, s->blen >> 1,
                        sizeof(int64_t)) < 0)
            return -1;
        s->blen0 = s->blen;
    }
    Py_ssize_t nmade = PyList_GET_SIZE(c->made);
    if (nmade == 0)
        return 0;
    Py_ssize_t n = PyList_GET_SIZE(c->journal);
    if (PyList_SetSlice(c->journal, n, n, c->made) < 0 ||
        array_extend(c->ends, c->made_end, nmade * (Py_ssize_t)sizeof(double)) < 0 ||
        PyObject_SetAttr(c->prt, str__ends_sorted, Py_None) < 0)
        return -1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* PRT query twins                                                     */
/* ------------------------------------------------------------------ */

/* `PortReservationTable.release_of_block`, on the kernel copies.  Only
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
/* Reservation construction                                            */
/* ------------------------------------------------------------------ */

static int
made_reserve(Ctx *c, Py_ssize_t need)
{
    if (need <= c->made_cap)
        return 0;
    Py_ssize_t cap = c->made_cap ? 2 * c->made_cap : 64;
    int64_t *src = (int64_t *)PyMem_Realloc(c->made_src, (size_t)cap * sizeof(int64_t));
    if (src != NULL)
        c->made_src = src;
    int64_t *dst = (int64_t *)PyMem_Realloc(c->made_dst, (size_t)cap * sizeof(int64_t));
    if (dst != NULL)
        c->made_dst = dst;
    double *end = (double *)PyMem_Realloc(c->made_end, (size_t)cap * sizeof(double));
    if (end != NULL)
        c->made_end = end;
    if (src == NULL || dst == NULL || end == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    c->made_cap = cap;
    return 0;
}

/* Reserve [t, end) on both slots.  Everything that can fail runs before
 * the timeline inserts, so the copies and `made` never disagree. */
static int
make_reservation(Ctx *c, Slot *si, Slot *so, Py_ssize_t ki, Py_ssize_t ko,
                 double t, double end, double setup)
{
    Py_ssize_t nmade = PyList_GET_SIZE(c->made);
    if (made_reserve(c, nmade + 1) < 0 || slot_reserve(si) < 0 ||
        slot_reserve(so) < 0)
        return -1;
    int rv = -1;
    PyObject *res = NULL, *t_obj = NULL, *end_obj = NULL, *setup_obj = NULL;
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
    if (PyList_Append(c->made, res) < 0)
        goto done;
    c->made_src[nmade] = si->port;
    c->made_dst[nmade] = so->port;
    c->made_end[nmade] = end;
    slot_insert(si, ki, t, end, c->journal0 + nmade);
    slot_insert(so, ko, t, end, c->journal0 + nmade);
    if (PyList_Append(c->out_list, res) < 0)
        goto done;
    rv = 0;
done:
    Py_XDECREF(res);
    Py_XDECREF(t_obj);
    Py_XDECREF(end_obj);
    Py_XDECREF(setup_obj);
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

/* Seed the ends after `start_time + eps` of the reservations on one port.
 * The peer port of a reservation this call made comes from the kernel's
 * arrays; that of one already in the table (a guard window, a blocker)
 * comes from the journal. */
static int
seed_slot(Ctx *c, Slot *s)
{
    Py_ssize_t nres = s->blen >> 1;
    Py_ssize_t k = bisect_right_d(s->bdata, s->blen, c->start_time + c->eps) >> 1;
    if (k >= nres)
        return 0;
    if (heap_reserve(c, c->hlen + (nres - k)) < 0)
        return -1;
    Py_ssize_t nmade = PyList_GET_SIZE(c->made);
    for (Py_ssize_t j = k; j < nres; j++) {
        int64_t ref = s->rdata[j];
        int64_t peer;
        if (ref >= c->journal0 && ref - c->journal0 < nmade) {
            Py_ssize_t m = (Py_ssize_t)(ref - c->journal0);
            peer = s->is_input ? c->made_dst[m] : c->made_src[m];
        }
        else if (ref >= 0 && ref < c->journal0 && ref < PyList_GET_SIZE(c->journal)) {
            PyObject *item = PyList_GET_ITEM(c->journal, ref);
            PyObject *peer_obj =
                PyObject_GetAttr(item, s->is_input ? str_dst : str_src);
            if (peer_obj == NULL)
                return -1;
            peer = PyLong_AsLongLong(peer_obj);
            Py_DECREF(peer_obj);
            if (peer == -1 && PyErr_Occurred())
                return -1;
        }
        else {
            PyErr_Format(PyExc_RuntimeError,
                         "PRT port %lld: journal ref %lld out of range",
                         (long long)s->port, (long long)ref);
            return -1;
        }
        Event ev;
        ev.t = s->bdata[2 * j + 1];
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
    return 0;
}

/* Seed the release events on the current Coflow's own ports: releases
 * elsewhere cannot change any of its entries' feasibility. */
static int
seed_events(Ctx *c)
{
    c->hlen = 0;
    for (Py_ssize_t i = 0; i < c->nentries; i++) {
        Slot *pair[2] = {&c->slots[c->entries[i].in_slot],
                         &c->slots[c->entries[i].out_slot]};
        for (int side = 0; side < 2; side++) {
            Slot *s = pair[side];
            if (s->rel_epoch == c->epoch)
                continue;
            s->rel_epoch = c->epoch;
            s->qlen = 0;
            if (seed_slot(c, s) < 0)
                return -1;
        }
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
            PyMem_Free(s->bdata);
            PyMem_Free(s->rdata);
            PyMem_Free(s->q);
        }
        PyMem_Free(c->slots);
    }
    if (c->dqs != NULL) {
        for (Py_ssize_t i = 0; i < c->ndq; i++)
            PyMem_Free(c->dqs[i].data);
        PyMem_Free(c->dqs);
    }
    PyMem_Free(c->all_entries);
    PyMem_Free(c->items);
    PyMem_Free(c->heap);
    PyMem_Free(c->made_src);
    PyMem_Free(c->made_dst);
    PyMem_Free(c->made_end);
    Py_XDECREF(c->made);
    Py_XDECREF(c->in_bounds_map);
    Py_XDECREF(c->in_refs_map);
    Py_XDECREF(c->out_bounds_map);
    Py_XDECREF(c->out_refs_map);
    Py_XDECREF(c->journal);
    Py_XDECREF(c->ends);
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

/* Read one item's `(srcs, dsts, vals)` columns.  Entries at or below
 * `eps` are skipped, exactly as the Python loop's entry packing skips
 * them, so the surviving positions are the order indices. */
static int
read_columns(Ctx *c, Item *it, Py_ssize_t i, PyObject *srcs, PyObject *dsts,
             PyObject *vals)
{
    Py_buffer sv, dv, vv;
    if (PyObject_GetBuffer(srcs, &sv, PyBUF_SIMPLE) < 0)
        return -1;
    if (PyObject_GetBuffer(dsts, &dv, PyBUF_SIMPLE) < 0) {
        PyBuffer_Release(&sv);
        return -1;
    }
    if (PyObject_GetBuffer(vals, &vv, PyBUF_SIMPLE) < 0) {
        PyBuffer_Release(&dv);
        PyBuffer_Release(&sv);
        return -1;
    }
    int rc = -1;
    Py_ssize_t n_all = sv.len / (Py_ssize_t)sizeof(int64_t);
    if (dv.len / (Py_ssize_t)sizeof(int64_t) != n_all ||
        vv.len / (Py_ssize_t)sizeof(double) != n_all) {
        PyErr_Format(PyExc_TypeError,
                     "batch item %zd: packed demand columns disagree in length", i);
        goto done;
    }
    if (n_all > INT32_MAX) {
        PyErr_SetString(PyExc_OverflowError, "too many demand entries");
        goto done;
    }
    if (c->nall + n_all > c->all_cap) {
        Py_ssize_t cap = c->all_cap ? c->all_cap : 64;
        while (cap < c->nall + n_all)
            cap *= 2;
        CEntry *all = (CEntry *)PyMem_Realloc(c->all_entries, (size_t)cap * sizeof(CEntry));
        if (all == NULL) {
            PyErr_NoMemory();
            goto done;
        }
        c->all_entries = all;
        c->all_cap = cap;
    }
    const int64_t *src_col = (const int64_t *)sv.buf;
    const int64_t *dst_col = (const int64_t *)dv.buf;
    const double *val_col = (const double *)vv.buf;
    it->first = c->nall;
    Py_ssize_t kept = 0;
    for (Py_ssize_t k = 0; k < n_all; k++) {
        if (val_col[k] > c->eps) {
            CEntry *e = &c->all_entries[c->nall + kept];
            e->src = src_col[k];
            e->dst = dst_col[k];
            e->remaining = val_col[k];
            e->has_est = 0;
            e->setup_left = 0.0;
            e->anchor = NAN;
            e->index = (int32_t)kept;
            kept++;
        }
    }
    it->n = kept;
    c->nall += kept;
    rc = 0;
done:
    PyBuffer_Release(&vv);
    PyBuffer_Release(&dv);
    PyBuffer_Release(&sv);
    return rc;
}

/* Look up each entry's `(setup_left, anchor)` in an item's established
 * circuits. */
static int
read_established(Ctx *c, Item *it, Py_ssize_t i, PyObject *established)
{
    for (Py_ssize_t k = 0; k < it->n; k++) {
        CEntry *e = &c->all_entries[it->first + k];
        PyObject *key = Py_BuildValue("(LL)", (long long)e->src, (long long)e->dst);
        if (key == NULL)
            return -1;
        PyObject *est = PyDict_GetItemWithError(established, key);
        Py_DECREF(key);
        if (est == NULL) {
            if (PyErr_Occurred())
                return -1;
            continue;
        }
        if (!PyTuple_Check(est) || PyTuple_GET_SIZE(est) != 2) {
            PyErr_Format(PyExc_TypeError,
                         "batch item %zd: established values must be "
                         "(setup_left, anchor) pairs", i);
            return -1;
        }
        e->has_est = 1;
        e->setup_left = PyFloat_AsDouble(PyTuple_GET_ITEM(est, 0));
        if (e->setup_left == -1.0 && PyErr_Occurred())
            return -1;
        PyObject *anchor = PyTuple_GET_ITEM(est, 1);
        if (anchor != Py_None) {
            e->anchor = PyFloat_AsDouble(anchor);
            if (e->anchor == -1.0 && PyErr_Occurred())
                return -1;
        }
    }
    return 0;
}

/* Step 1a: validate the batch and read every item into kernel memory.
 * Nothing touches the table here. */
static int
read_batch(Ctx *c, PyObject *batch)
{
    Py_ssize_t n = PyTuple_GET_SIZE(batch);
    c->items = (Item *)PyMem_Calloc((size_t)(n ? n : 1), sizeof(Item));
    if (c->items == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    c->nitems = n;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyTuple_GET_ITEM(batch, i);
        if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 6) {
            PyErr_Format(PyExc_TypeError,
                         "batch item %zd must be a (coflow_id, srcs, dsts, vals, "
                         "established_or_None, out_reservations) tuple", i);
            return -1;
        }
        PyObject *established = PyTuple_GET_ITEM(item, 4);
        Item *it = &c->items[i];
        it->coflow_id = PyTuple_GET_ITEM(item, 0);
        it->out_list = PyTuple_GET_ITEM(item, 5);
        it->has_est = established != Py_None;
        if (it->has_est && !PyDict_Check(established)) {
            PyErr_Format(PyExc_TypeError,
                         "batch item %zd: established must be a dict or None", i);
            return -1;
        }
        if (!PyList_Check(it->out_list)) {
            PyErr_Format(PyExc_TypeError,
                         "batch item %zd: out_reservations must be a list", i);
            return -1;
        }
        if (read_columns(c, it, i, PyTuple_GET_ITEM(item, 1),
                         PyTuple_GET_ITEM(item, 2), PyTuple_GET_ITEM(item, 3)) < 0)
            return -1;
        if (it->has_est && read_established(c, it, i, established) < 0)
            return -1;
    }
    return 0;
}

/* Step 1b: fetch and type-check the PRT storage attributes. */
static int
ctx_attach(Ctx *c)
{
    c->in_bounds_map = PyObject_GetAttr(c->prt, str__in_bounds);
    c->in_refs_map = PyObject_GetAttr(c->prt, str__in_refs);
    c->out_bounds_map = PyObject_GetAttr(c->prt, str__out_bounds);
    c->out_refs_map = PyObject_GetAttr(c->prt, str__out_refs);
    c->journal = PyObject_GetAttr(c->prt, str__reservations);
    c->ends = PyObject_GetAttr(c->prt, str__ends);
    if (c->in_bounds_map == NULL || c->in_refs_map == NULL ||
        c->out_bounds_map == NULL || c->out_refs_map == NULL ||
        c->journal == NULL || c->ends == NULL)
        return -1;
    if (!PyDict_Check(c->in_bounds_map) || !PyDict_Check(c->in_refs_map) ||
        !PyDict_Check(c->out_bounds_map) || !PyDict_Check(c->out_refs_map) ||
        !PyList_Check(c->journal) ||
        !PyObject_TypeCheck(c->ends, (PyTypeObject *)array_type)) {
        PyErr_SetString(PyExc_TypeError,
                        "PRT storage layout does not match the native kernel");
        return -1;
    }
    c->journal0 = PyList_GET_SIZE(c->journal);
    c->made = PyList_New(0);
    c->delta_obj = PyFloat_FromDouble(c->delta);
    if (c->made == NULL || c->delta_obj == NULL)
        return -1;
    resolve_offsets(c);
    return 0;
}

/* Step 1c: build the sorted slot table over every port the batch
 * touches, copying each one's timeline out of the table. */
static int
ctx_build_slots(Ctx *c)
{
    Py_ssize_t n = c->nall;
    int64_t *keys = (int64_t *)PyMem_Malloc((size_t)(2 * n) * sizeof(int64_t));
    if (keys == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        keys[2 * i] = c->all_entries[i].src * 2;
        keys[2 * i + 1] = c->all_entries[i].dst * 2 + 1;
    }
    qsort(keys, (size_t)(2 * n), sizeof(int64_t), int64_key_cmp);
    Py_ssize_t nslots = 0;
    for (Py_ssize_t i = 0; i < 2 * n; i++)
        if (i == 0 || keys[i] != keys[i - 1])
            keys[nslots++] = keys[i];
    int rc = -1;
    c->slots = (Slot *)PyMem_Calloc((size_t)nslots, sizeof(Slot));
    if (c->slots == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    c->nslots = nslots;
    for (Py_ssize_t i = 0; i < nslots; i++) {
        Slot *s = &c->slots[i];
        int64_t key = keys[i];
        s->key = key;
        s->is_input = (key & 1) == 0;
        s->port = s->is_input ? key / 2 : (key - 1) / 2;
        s->port_obj = PyLong_FromLongLong((long long)s->port);
        if (s->port_obj == NULL)
            goto done;
        PyObject *bmap = s->is_input ? c->in_bounds_map : c->out_bounds_map;
        PyObject *rmap = s->is_input ? c->in_refs_map : c->out_refs_map;
        PyObject *bounds = PyDict_GetItemWithError(bmap, s->port_obj);
        if (bounds == NULL && PyErr_Occurred())
            goto done;
        PyObject *refs = PyDict_GetItemWithError(rmap, s->port_obj);
        if (refs == NULL && PyErr_Occurred())
            goto done;
        if ((bounds == NULL) != (refs == NULL)) {
            PyErr_Format(PyExc_RuntimeError,
                         "PRT port %lld: bounds/refs tables out of sync",
                         (long long)s->port);
            goto done;
        }
        if (bounds != NULL) {
            Py_INCREF(bounds);
            Py_INCREF(refs);
            s->bounds = bounds;
            s->refs = refs;
            if (slot_copy_in(s, bounds, refs) < 0)
                goto done;
        }
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        CEntry *e = &c->all_entries[i];
        e->in_slot = find_slot(c, e->src * 2) - c->slots;
        e->out_slot = find_slot(c, e->dst * 2 + 1) - c->slots;
    }
    c->dqs = (DQueue *)PyMem_Calloc((size_t)nslots, sizeof(DQueue));
    if (c->dqs == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    rc = 0;
done:
    PyMem_Free(keys);
    return rc;
}

/* ------------------------------------------------------------------ */
/* The scheduling loop (step 2, one Coflow)                            */
/* ------------------------------------------------------------------ */

static int
run_schedule(Ctx *c)
{
    c->epoch++;   /* fresh taken/seeded stamps for this Coflow */
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
/* Entry points                                                        */
/* ------------------------------------------------------------------ */

/* One call per replan.  Each batch item is `(coflow_id, srcs, dsts, vals,
 * established_or_None, out_reservations)`: demand columns (`array('q')`,
 * `array('q')`, `array('d')`) already in consideration order — a
 * PackedDemand's own, or columns `SunflowScheduler._columns` builds — and
 * the list the Coflow's reservations are appended to. */
static PyObject *
native_schedule_many_packed(PyObject *self, PyObject *args)
{
    PyObject *prt, *res_type, *batch;
    double start_time, delta, eps;
    if (!PyArg_ParseTuple(args, "OOdddO!:schedule_many_packed", &prt, &res_type,
                          &start_time, &delta, &eps, &PyList_Type, &batch))
        return NULL;
    if (!PyType_Check(res_type)) {
        PyErr_SetString(PyExc_TypeError, "res_type must be a class");
        return NULL;
    }
    /* The snapshot keeps every item alive whatever happens to the list. */
    PyObject *snapshot = PyList_AsTuple(batch);
    if (snapshot == NULL)
        return NULL;
    Ctx c;
    memset(&c, 0, sizeof(Ctx));
    c.prt = prt;
    c.res_type = res_type;
    c.start_time = start_time;
    c.delta = delta;
    c.eps = eps;
    Py_ssize_t nmade = 0;
    int rv = read_batch(&c, snapshot);
    if (rv == 0 && c.nall > 0) {
        rv = ctx_attach(&c);
        if (rv == 0)
            rv = ctx_build_slots(&c);
        if (rv == 0) {
            for (Py_ssize_t i = 0; i < c.nitems && rv == 0; i++) {
                Item *it = &c.items[i];
                if (it->n == 0)
                    continue;  /* the Python `if not entries` skip */
                c.coflow_id = it->coflow_id;
                c.out_list = it->out_list;
                c.has_established = it->has_est;
                c.entries = c.all_entries + it->first;
                c.nentries = it->n;
                c.outstanding = it->n;
                rv = run_schedule(&c);
            }
            /* Write back even after a planning error, so the table holds
             * what writing each reservation as it was made would have left;
             * a write-back error replaces the planning one. */
            PyObject *type, *value, *tb;
            PyErr_Fetch(&type, &value, &tb);
            if (write_back(&c) < 0) {
                rv = -1;
                Py_XDECREF(type);
                Py_XDECREF(value);
                Py_XDECREF(tb);
            }
            else
                PyErr_Restore(type, value, tb);
            nmade = PyList_GET_SIZE(c.made);
        }
    }
    ctx_free(&c);
    Py_DECREF(snapshot);
    if (rv < 0)
        return NULL;
    return PyLong_FromSsize_t(nmade);
}

/* Largest port accepted by the scan: 2 * port + 2 must fit int64. */
#define MAX_SCAN_PORT ((INT64_MAX - 2) / 2)

/* Add `seconds` to port `key`'s load in an open-addressing table of
 * 2^bits cells keyed by key + 1 (0 marks an empty cell). */
static inline void
load_add(uint64_t *tags, double *loads, int bits, int64_t key, double seconds)
{
    uint64_t tag = (uint64_t)key + 1;
    size_t mask = ((size_t)1 << bits) - 1;
    size_t i = (size_t)((tag * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
    while (tags[i] != 0 && tags[i] != tag)
        i = (i + 1) & mask;
    if (tags[i] == 0) {
        tags[i] = tag;
        loads[i] = 0.0;
    }
    loads[i] += seconds;
}

/* `CoflowView.bottleneck`: the busiest port's summed remaining seconds
 * over a dict `{(src, dst): seconds}`.  Each port's load accumulates in
 * the dict's iteration order, so every sum rounds as the Python loop's.
 * Returns None, and the caller runs the Python loop, unless every key is
 * an exact `(int, int)` tuple of non-negative ports and every value an
 * exact float. */
static PyObject *
native_port_bottleneck(PyObject *self, PyObject *mapping)
{
    if (!PyDict_Check(mapping))
        Py_RETURN_NONE;
    int bits = 4;
    while (((Py_ssize_t)1 << bits) < 4 * PyDict_GET_SIZE(mapping))
        bits++;
    size_t cap = (size_t)1 << bits;
    uint64_t tags_small[256];
    double loads_small[256];
    uint64_t *tags = tags_small;
    double *loads = loads_small;
    if (cap > 256) {
        tags = (uint64_t *)PyMem_Malloc(cap * sizeof(uint64_t));
        loads = (double *)PyMem_Malloc(cap * sizeof(double));
        if (tags == NULL || loads == NULL) {
            PyMem_Free(tags);
            PyMem_Free(loads);
            return PyErr_NoMemory();
        }
    }
    memset(tags, 0, cap * sizeof(uint64_t));
    PyObject *result = NULL;
    PyObject *key, *value;
    Py_ssize_t pos = 0;
    while (PyDict_Next(mapping, &pos, &key, &value)) {
        if (!PyTuple_CheckExact(key) || PyTuple_GET_SIZE(key) != 2 ||
            !PyFloat_CheckExact(value))
            goto done;
        int64_t ports[2];
        for (int side = 0; side < 2; side++) {
            PyObject *p = PyTuple_GET_ITEM(key, side);
            int overflow;
            if (!PyLong_CheckExact(p))
                goto done;
            long long v = PyLong_AsLongLongAndOverflow(p, &overflow);
            if (overflow || v < 0 || v > MAX_SCAN_PORT)
                goto done;
            ports[side] = v;
        }
        double seconds = PyFloat_AS_DOUBLE(value);
        if (!(seconds > 0))
            continue;
        load_add(tags, loads, bits, 2 * ports[0], seconds);
        load_add(tags, loads, bits, 2 * ports[1] + 1, seconds);
    }
    /* Every load is a sum of positive floats, so 0.0 is below all of them
     * and also the empty answer. */
    double best = 0.0;
    for (size_t i = 0; i < cap; i++)
        if (tags[i] != 0 && loads[i] > best)
            best = loads[i];
    result = PyFloat_FromDouble(best);
done:
    if (tags != tags_small) {
        PyMem_Free(tags);
        PyMem_Free(loads);
    }
    if (result == NULL && !PyErr_Occurred())
        Py_RETURN_NONE;
    return result;
}

static PyMethodDef native_methods[] = {
    {"schedule_many_packed", native_schedule_many_packed, METH_VARARGS,
     "schedule_many_packed(prt, reservation_cls, start_time, delta, eps, batch)"
     "\n\n"
     "Compiled twin of SunflowScheduler's event-driven scheduling loop, run\n"
     "over a priority-ordered list of (coflow_id, srcs, dsts, vals,\n"
     "established_or_None, out_reservations) items on one PRT in one call.\n"
     "Appends each Coflow's planned Reservation objects to its\n"
     "out_reservations, bit-identically to the pure-Python loop, and\n"
     "returns the number of reservations made.  A malformed item raises\n"
     "TypeError before the table is touched."},
    {"port_bottleneck", native_port_bottleneck, METH_O,
     "port_bottleneck(mapping)\n\n"
     "CoflowView.bottleneck over {(src, dst): seconds}, bit-identically to\n"
     "the Python loop; None when the mapping is not a dict of exact\n"
     "(int, int) keys with non-negative ports and exact float values."},
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
