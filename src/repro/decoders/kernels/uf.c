/*
 * Scalar Delfosse-Nickerson union-find decoder (arXiv:1709.06218), one
 * syndrome row at a time: the ``cext`` backend's kernel.
 *
 * A line-by-line transcription of UnionFindDecoder._decode_defects and
 * UnionFindDecoder._peel (repro/decoders/unionfind.py):
 *
 *   - defects seed odd singleton clusters; every round, each active (odd,
 *     boundary-free) cluster pushes on every non-solid edge incident to its
 *     members, an edge pushed by two distinct active clusters growing twice
 *     as fast;
 *   - growth is event driven: all frontier edges advance by the smallest
 *     step that completes one of them, completed edges turn solid and union
 *     their endpoints;
 *   - the loop stops when no cluster is active, when the active clusters
 *     have no frontier left ("give up"), or after max_rounds rounds;
 *   - the correction peels the canonical spanning forest of the solid
 *     subgraph: adjacency in ascending edge order, FIFO breadth-first
 *     traversal, components rooted at the boundary first and then at the
 *     first endpoint appearance, leaves flipping their parent edge when
 *     they hold a defect.
 *
 * The cluster partition and the solid edge set are independent of the
 * order in which a round's completed edges are unioned, so the observable
 * mask is bit-identical to the Python decoder's.
 *
 * uf_decode_packed reads bit-packed uint64 rows and finds defects with
 * count-trailing-zeros.  The same source carries the packed data plane's
 * helpers (plane_xor_darts, plane_dedup) and the backward DEM walk
 * (dem_walk, dem_free), so one build serves all of them.
 *
 * Each edge's growth state (growth, the per-cluster push stamp, a per-call
 * copy of its weight, the push count, the solid and dirty flags) is one
 * record, so visiting a frontier edge touches one cache line.  Edges that
 * grow are listed once (the dirty flag skips repeats), and only they are
 * reset after the row, not every edge incident to a touched node.
 *
 * uf_decode_packed hands its rows out in chunks of UF_CHUNK_ROWS from one
 * shared atomic counter: the calling thread and n_threads - 1 pthreads,
 * each with its own scratch, take the next chunk until none is left, so a
 * run of costly rows cannot leave one thread working while the others
 * wait.  Rows are independent, so every mask is the same for any thread
 * count.  Every scratch array, every thread's state and the counter sit on
 * cache lines of their own (line_alloc), so no thread writes a line that
 * another reads, wherever the allocator puts the blocks.
 *
 * All scratch state is allocated per call: concurrent calls (ctypes drops
 * the GIL around foreign calls) never share memory.  Build with
 *   cc -O2 -ffp-contract=off -pthread -shared -fPIC -o uf.so uf.c
 * where -ffp-contract=off keeps the DEM walk's probability arithmetic
 * bit-identical to Python's (no fused multiply-adds).
 */

#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* one edge's growth state: everything a frontier visit reads or writes */
typedef struct {
    int64_t growth; /* grown so far, in half-steps */
    int64_t stamp;  /* edge_stamp of the last active cluster that pushed it */
    int64_t w;      /* its integer weight */
    int32_t count;  /* distinct active clusters pushing it this round */
    uint8_t solid;  /* fully grown: its endpoints are unioned */
    uint8_t dirty;  /* listed in dirty[], to be reset after the row */
} uf_edge;

typedef struct {
    /* graph, borrowed from the caller */
    int64_t boundary, max_rounds;
    const int64_t *indptr, *eids, *eu, *ev;
    const uint64_t *eobs;
    /* union-find forest and cluster state, per node */
    int64_t *parent, *mnext, *mtail, *nstamp, *local;
    int32_t *rank;
    uint8_t *parity, *bnd, *occ, *dpar;
    /* growth state, per edge */
    uf_edge *edges;
    /* work lists */
    int64_t *defects, *touched, *active, *frontier, *completed, *solids, *dirty;
    int64_t *lnode, *loff, *lpos, *ladj, *queue, *ochild, *oparent, *oedge;
    uint8_t *lvis;
    int64_t n_touched, n_solid, n_dirty, node_stamp, edge_stamp;
} uf_state;

static int64_t find(uf_state *s, int64_t a)
{
    int64_t root = a, next;
    while (s->parent[root] != root)
        root = s->parent[root];
    while (s->parent[a] != a) {
        next = s->parent[a];
        s->parent[a] = root;
        a = next;
    }
    return root;
}

static void add_node(uf_state *s, int64_t a)
{
    if (s->occ[a])
        return;
    s->occ[a] = 1;
    s->touched[s->n_touched++] = a;
    s->bnd[a] = a == s->boundary;
    s->mnext[a] = -1;
    s->mtail[a] = a;
}

static void union_nodes(uf_state *s, int64_t a, int64_t b)
{
    int64_t ra = find(s, a), rb = find(s, b), t;
    if (ra == rb)
        return;
    if (s->rank[ra] < s->rank[rb]) {
        t = ra;
        ra = rb;
        rb = t;
    }
    s->parent[rb] = ra;
    if (s->rank[ra] == s->rank[rb])
        s->rank[ra] += 1;
    s->parity[ra] ^= s->parity[rb];
    if (s->bnd[rb])
        s->bnd[ra] = 1;
    /* members[ra].extend(members[rb]): the list head is always the root */
    s->mnext[s->mtail[ra]] = rb;
    s->mtail[ra] = s->mtail[rb];
}

/* ceil(x / c) for c > 0, matching Python's -((-x) // c) */
static int64_t ceil_div(int64_t x, int64_t c)
{
    int64_t q = x / c;
    if (x > 0 && q * c != x)
        q += 1;
    return q;
}

static int cmp_i64(const void *pa, const void *pb)
{
    int64_t a = *(const int64_t *)pa, b = *(const int64_t *)pb;
    return (a > b) - (a < b);
}

/* ascending sort: insertion sort for the few solid edges of a typical
 * row, qsort beyond that */
static void sort_i64(int64_t *a, int64_t n)
{
    int64_t i, j, x;

    if (n > 32) {
        qsort(a, (size_t)n, sizeof(int64_t), cmp_i64);
        return;
    }
    for (i = 1; i < n; i++) {
        x = a[i];
        for (j = i; j > 0 && a[j - 1] > x; j--)
            a[j] = a[j - 1];
        a[j] = x;
    }
}

static void grow(uf_state *s, int64_t nd)
{
    const int64_t *indptr = s->indptr, *eids = s->eids;
    uf_edge *edges = s->edges, *ed;
    int64_t round, i, k, node, e, root, n_active, n_front, n_comp, step, need, x;

    for (round = 0; round < s->max_rounds; round++) {
        /* active roots: odd clusters that do not touch the boundary */
        n_active = 0;
        s->node_stamp += 1;
        for (i = 0; i < nd; i++) {
            root = find(s, s->defects[i]);
            if (s->parity[root] && !s->bnd[root] && s->nstamp[root] != s->node_stamp) {
                s->nstamp[root] = s->node_stamp;
                s->active[n_active++] = root;
            }
        }
        if (n_active == 0)
            break;
        /* frontier: non-solid edges incident to active clusters, counting
         * the distinct active clusters pushing on each */
        n_front = 0;
        for (i = 0; i < n_active; i++) {
            s->edge_stamp += 1;
            for (node = s->active[i]; node >= 0; node = s->mnext[node]) {
                for (k = indptr[node]; k < indptr[node + 1]; k++) {
                    e = eids[k];
                    ed = &edges[e];
                    if (ed->solid || ed->stamp == s->edge_stamp)
                        continue;
                    ed->stamp = s->edge_stamp;
                    if (ed->count++ == 0)
                        s->frontier[n_front++] = e;
                }
            }
        }
        if (n_front == 0)
            break; /* isolated odd cluster with no frontier: give up */
        /* event-driven growth: jump straight to the next completion.  A
         * frontier edge is not solid, so x = w - growth > 0, and one or two
         * pushers need no division */
        step = -1;
        for (i = 0; i < n_front; i++) {
            ed = &edges[s->frontier[i]];
            x = ed->w - ed->growth;
            if (ed->count == 1)
                need = x;
            else if (ed->count == 2)
                need = (x + 1) >> 1;
            else
                need = ceil_div(x, ed->count);
            if (step < 0 || need < step)
                step = need;
        }
        n_comp = 0;
        for (i = 0; i < n_front; i++) {
            e = s->frontier[i];
            ed = &edges[e];
            ed->growth += (int64_t)ed->count * step;
            ed->count = 0;
            if (!ed->dirty) {
                ed->dirty = 1;
                s->dirty[s->n_dirty++] = e;
            }
            if (ed->growth >= ed->w)
                s->completed[n_comp++] = e;
        }
        for (i = 0; i < n_comp; i++) {
            e = s->completed[i];
            edges[e].solid = 1;
            s->solids[s->n_solid++] = e;
            add_node(s, s->eu[e]);
            add_node(s, s->ev[e]);
            union_nodes(s, s->eu[e], s->ev[e]);
        }
    }
}

static uint64_t peel(uf_state *s, int64_t nd)
{
    const int64_t *eu = s->eu, *ev = s->ev;
    const int64_t boundary = s->boundary;
    int64_t i, j, k, e, x, li, lo, node, other, n_local = 0, n_order = 0, qh, qt;
    int64_t ends[2];
    uint64_t mask = 0;

    if (s->n_solid == 0)
        return 0;
    sort_i64(s->solids, s->n_solid);
    /* local node ids in first-appearance order over ascending edges */
    for (i = 0; i < s->n_solid; i++) {
        e = s->solids[i];
        ends[0] = eu[e];
        ends[1] = ev[e];
        for (j = 0; j < 2; j++) {
            x = ends[j];
            if (s->local[x] < 0) {
                s->local[x] = n_local;
                s->lnode[n_local] = x;
                s->loff[n_local + 1] = 0;
                s->lvis[n_local] = 0;
                n_local++;
            }
            s->loff[s->local[x] + 1] += 1;
        }
    }
    s->loff[0] = 0;
    for (i = 0; i < n_local; i++) {
        s->loff[i + 1] += s->loff[i];
        s->lpos[i] = s->loff[i];
    }
    for (i = 0; i < s->n_solid; i++) {
        e = s->solids[i];
        s->ladj[s->lpos[s->local[eu[e]]]++] = e;
        s->ladj[s->lpos[s->local[ev[e]]]++] = e;
    }

    /* spanning forest via FIFO BFS, roots preferring the boundary node */
    for (j = -1; j < n_local; j++) {
        if (j < 0) {
            if (s->local[boundary] < 0)
                continue;
            li = s->local[boundary];
        } else {
            li = j;
        }
        if (s->lvis[li])
            continue;
        s->lvis[li] = 1;
        qh = qt = 0;
        s->queue[qt++] = li;
        while (qh < qt) {
            li = s->queue[qh++];
            node = s->lnode[li];
            for (k = s->loff[li]; k < s->loff[li + 1]; k++) {
                e = s->ladj[k];
                other = eu[e] == node ? ev[e] : eu[e];
                lo = s->local[other];
                if (s->lvis[lo])
                    continue;
                s->lvis[lo] = 1;
                s->ochild[n_order] = other;
                s->oparent[n_order] = node;
                s->oedge[n_order] = e;
                n_order++;
                s->queue[qt++] = lo;
            }
        }
    }

    for (i = 0; i < nd; i++)
        s->dpar[s->defects[i]] ^= 1;
    /* peel leaves (reverse BFS order): each node decides its parent edge */
    for (i = n_order - 1; i >= 0; i--) {
        node = s->ochild[i];
        if (!s->dpar[node])
            continue;
        mask ^= s->eobs[s->oedge[i]];
        s->dpar[node] = 0;
        if (s->oparent[i] != boundary)
            s->dpar[s->oparent[i]] ^= 1;
    }

    for (i = 0; i < nd; i++)
        s->dpar[s->defects[i]] = 0;
    for (i = 0; i < n_local; i++) {
        s->dpar[s->lnode[i]] = 0;
        s->local[s->lnode[i]] = -1;
    }
    return mask;
}

/* decode the defect list already in s->defects[0..nd), ascending */
static uint64_t decode_defects(uf_state *s, int64_t nd)
{
    int64_t i, a, d;
    uf_edge *ed;
    uint64_t mask;

    if (nd == 0)
        return 0;
    s->n_touched = 0;
    s->n_solid = 0;
    /* seed clusters: each defect starts as its own odd root */
    for (i = 0; i < nd; i++) {
        d = s->defects[i];
        if (!s->occ[d]) {
            s->occ[d] = 1;
            s->touched[s->n_touched++] = d;
            s->parity[d] = 1;
            s->mnext[d] = -1;
            s->mtail[d] = d;
        } else {
            s->parity[d] ^= 1;
        }
    }
    grow(s, nd);
    mask = peel(s, nd);
    /* restore the pristine shape: growth and solidity only ever change on
     * edges that grew, and those are listed in dirty[] */
    for (i = 0; i < s->n_touched; i++) {
        a = s->touched[i];
        s->parent[a] = a;
        s->rank[a] = 0;
        s->parity[a] = 0;
        s->bnd[a] = 0;
        s->occ[a] = 0;
    }
    for (i = 0; i < s->n_dirty; i++) {
        ed = &s->edges[s->dirty[i]];
        ed->growth = 0;
        ed->solid = 0;
        ed->dirty = 0;
    }
    s->n_dirty = 0;
    return mask;
}

/* detector d in word d / 64, bit d % 64: defects by count-trailing-zeros */
static uint64_t decode_packed_row(uf_state *s, const uint64_t *row, int64_t n_words,
                                  int64_t n_det)
{
    int64_t j, d, nd = 0;
    uint64_t x;

    for (j = 0; j < n_words; j++) {
        for (x = row[j]; x; x &= x - 1) {
            d = j * 64 + __builtin_ctzll(x);
            if (d >= n_det)
                break; /* padding bits past the last detector */
            s->defects[nd++] = d;
        }
    }
    return decode_defects(s, nd);
}

/* the cache line: no two scratch arrays, and no two threads' states, share one */
#define UF_LINE 64

/* n bytes on cache lines of their own, zeroed when zero is set; NULL when
 * out of memory.  A line that one thread writes and another reads would
 * ping-pong between their cores on every row, by an amount that depends
 * on where the allocator happens to put each block. */
static void *line_alloc(size_t n, int zero)
{
    void *p;

    n = (n + UF_LINE - 1) / UF_LINE * UF_LINE;
    p = aligned_alloc(UF_LINE, n ? n : UF_LINE);
    if (p && zero)
        memset(p, 0, n);
    return p;
}

static void state_free(uf_state *s)
{
    free(s->parent); free(s->mnext); free(s->mtail); free(s->nstamp);
    free(s->local); free(s->rank); free(s->parity); free(s->bnd); free(s->occ);
    free(s->dpar); free(s->edges); free(s->defects); free(s->touched);
    free(s->active); free(s->frontier); free(s->completed); free(s->solids);
    free(s->dirty); free(s->lnode);
    free(s->loff); free(s->lpos); free(s->ladj); free(s->queue); free(s->ochild);
    free(s->oparent); free(s->oedge); free(s->lvis);
}

/* borrow the graph and allocate the scratch; -1 (all freed) when out of memory */
static int state_init(uf_state *s, int64_t n_nodes, int64_t n_edges,
                      const int64_t *indptr, const int64_t *eids, const int64_t *eu,
                      const int64_t *ev, const int64_t *w, const uint64_t *eobs,
                      int64_t boundary, int64_t max_rounds)
{
    int64_t i;
    size_t N = (size_t)n_nodes, E = (size_t)n_edges + 1;

    memset(s, 0, sizeof(*s));
    s->boundary = boundary;
    s->max_rounds = max_rounds;
    s->indptr = indptr;
    s->eids = eids;
    s->eu = eu;
    s->ev = ev;
    s->eobs = eobs;

    s->parent = line_alloc(N * sizeof(int64_t), 0);
    s->mnext = line_alloc(N * sizeof(int64_t), 0);
    s->mtail = line_alloc(N * sizeof(int64_t), 0);
    s->nstamp = line_alloc(N * sizeof(int64_t), 1);
    s->local = line_alloc(N * sizeof(int64_t), 0);
    s->rank = line_alloc(N * sizeof(int32_t), 1);
    s->parity = line_alloc(N, 1);
    s->bnd = line_alloc(N, 1);
    s->occ = line_alloc(N, 1);
    s->dpar = line_alloc(N, 1);
    s->edges = line_alloc(E * sizeof(uf_edge), 1);
    s->defects = line_alloc(N * sizeof(int64_t), 0);
    s->touched = line_alloc(N * sizeof(int64_t), 0);
    s->active = line_alloc(N * sizeof(int64_t), 0);
    s->frontier = line_alloc(E * sizeof(int64_t), 0);
    s->completed = line_alloc(E * sizeof(int64_t), 0);
    s->solids = line_alloc(E * sizeof(int64_t), 0);
    s->dirty = line_alloc(E * sizeof(int64_t), 0);
    s->lnode = line_alloc(N * sizeof(int64_t), 0);
    s->loff = line_alloc((N + 1) * sizeof(int64_t), 0);
    s->lpos = line_alloc(N * sizeof(int64_t), 0);
    s->ladj = line_alloc(2 * E * sizeof(int64_t), 0);
    s->queue = line_alloc(N * sizeof(int64_t), 0);
    s->ochild = line_alloc(N * sizeof(int64_t), 0);
    s->oparent = line_alloc(N * sizeof(int64_t), 0);
    s->oedge = line_alloc(N * sizeof(int64_t), 0);
    s->lvis = line_alloc(N, 0);

    if (!s->parent || !s->mnext || !s->mtail || !s->nstamp || !s->local || !s->rank
        || !s->parity || !s->bnd || !s->occ || !s->dpar || !s->edges || !s->defects
        || !s->touched || !s->active || !s->frontier || !s->completed || !s->solids
        || !s->dirty || !s->lnode || !s->loff
        || !s->lpos || !s->ladj || !s->queue || !s->ochild || !s->oparent
        || !s->oedge || !s->lvis) {
        state_free(s);
        return -1;
    }
    for (i = 0; i < n_nodes; i++) {
        s->parent[i] = i;
        s->local[i] = -1;
    }
    for (i = 0; i < n_edges; i++)
        s->edges[i].w = w[i];
    return 0;
}

/* at most this many threads per call, whatever n_threads asks for */
#define UF_MAX_THREADS 64
/* rows handed out per take of the shared counter */
#define UF_CHUNK_ROWS 32

/* one call's rows, shared by every thread that decodes them; the counter
 * has a cache line to itself */
typedef struct {
    const uint64_t *words;
    int64_t n_rows, n_words, n_det;
    uint64_t *out;
    _Alignas(UF_LINE) int64_t next; /* first row not yet handed out; taken atomically */
} uf_rows;

/* one decoding thread: its own scratch over the shared rows, on cache
 * lines of its own */
typedef struct {
    _Alignas(UF_LINE) uf_state s;
    uf_rows *rows;
} uf_worker;

/* take chunks of rows off the shared counter until none is left */
static void *drain_rows(void *arg)
{
    uf_worker *wk = arg;
    int64_t *next = &wk->rows->next;
    const uint64_t *words = wk->rows->words;
    const int64_t n_rows = wk->rows->n_rows, n_words = wk->rows->n_words;
    const int64_t n_det = wk->rows->n_det;
    uint64_t *out = wk->rows->out;
    int64_t i, lo, hi;

    for (;;) {
        lo = __atomic_fetch_add(next, UF_CHUNK_ROWS, __ATOMIC_RELAXED);
        if (lo >= n_rows)
            break;
        hi = lo + UF_CHUNK_ROWS < n_rows ? lo + UF_CHUNK_ROWS : n_rows;
        for (i = lo; i < hi; i++)
            out[i] = decode_packed_row(&wk->s, words + i * n_words, n_words, n_det);
    }
    return NULL;
}

/*
 * Decode n_rows bit-packed syndrome rows (row-major, n_words uint64 words
 * each, detector d in word d / 64, bit d % 64; n_det = n_nodes - 1) into
 * one observable bitmask per row, on n_threads threads (clamped to
 * [1, min(n_rows, UF_MAX_THREADS)]) that take UF_CHUNK_ROWS rows at a time
 * from one shared counter.  The calling thread drains the counter too, so
 * rows meant for a thread that cannot be created are decoded all the same.
 * Returns 0 on success and -1 when scratch memory cannot be allocated.
 */
int uf_decode_packed(int64_t n_rows, const uint64_t *words, int64_t n_words,
                     int64_t n_nodes, int64_t n_edges, const int64_t *indptr,
                     const int64_t *eids, const int64_t *eu, const int64_t *ev,
                     const int64_t *w, const uint64_t *eobs, int64_t boundary,
                     int64_t max_rounds, int64_t n_threads, uint64_t *out)
{
    uf_rows rows = {words, n_rows, n_words, n_nodes - 1, out, 0};
    uf_worker *workers;
    pthread_t *tids;
    uint8_t *started;
    int64_t t, n_init = 0;
    int status = -1;

    if (n_threads > n_rows)
        n_threads = n_rows;
    if (n_threads > UF_MAX_THREADS)
        n_threads = UF_MAX_THREADS;
    if (n_threads < 1)
        n_threads = 1;
    workers = line_alloc((size_t)n_threads * sizeof(*workers), 1);
    tids = calloc((size_t)n_threads, sizeof(*tids));
    started = calloc((size_t)n_threads, 1);
    if (!workers || !tids || !started)
        goto done;
    for (t = 0; t < n_threads; t++, n_init++) {
        workers[t].rows = &rows;
        if (state_init(&workers[t].s, n_nodes, n_edges, indptr, eids, eu, ev, w, eobs,
                       boundary, max_rounds) != 0)
            goto done;
    }
    for (t = 1; t < n_threads; t++)
        started[t] = pthread_create(&tids[t], NULL, drain_rows, &workers[t]) == 0;
    drain_rows(&workers[0]);
    for (t = 1; t < n_threads; t++)
        if (started[t])
            pthread_join(tids[t], NULL);
    status = 0;
done:
    for (t = 0; t < n_init; t++)
        state_free(&workers[t].s);
    free(workers);
    free(tids);
    free(started);
    return status;
}

/* ------------------------------------------------------------------------
 * Packed syndrome data plane (repro.decoders.kernels.plane): the sampler's
 * dart XOR and the batch engine's row dedup, on uint64 detector words.
 * ---------------------------------------------------------------------- */

/*
 * XOR each dart's signature into its shot's words.  Darts are grouped by
 * error: counts[e] darts of error e, in order, their shots in rows[].  A
 * signature is sparse (CSR over errors): words ptr[e]..ptr[e+1] of
 * word_idx/word_bits.  out is row-major with n_words words per shot.
 * Duplicate darts cancel by themselves, so no multiplicity filter is needed.
 */
void plane_xor_darts(int64_t n_err, const int64_t *counts, const int64_t *rows,
                     const int64_t *ptr, const int64_t *word_idx,
                     const uint64_t *word_bits, int64_t n_words, uint64_t *out)
{
    int64_t e, k, j, pos = 0;
    uint64_t *dst;

    for (e = 0; e < n_err; e++) {
        for (k = 0; k < counts[e]; k++) {
            dst = out + rows[pos++] * n_words;
            for (j = ptr[e]; j < ptr[e + 1]; j++)
                dst[word_idx[j]] ^= word_bits[j];
        }
    }
}

#define HASH_SEED 0x9E3779B97F4A7C15ULL

static uint64_t hash_words(const uint64_t *row, int64_t n_words, uint64_t h)
{
    int64_t j;

    for (j = 0; j < n_words; j++) {
        h ^= row[j];
        h *= 0xBF58476D1CE4E5B9ULL;
        h ^= h >> 31;
    }
    return h;
}

/*
 * Group identical rows with an open-addressing hash table.  Groups are
 * numbered in order of first occurrence: inverse[i] is row i's group and
 * first[g] the index of group g's first row.  Returns the number of groups,
 * or -1 when the table cannot be allocated.
 */
int64_t plane_dedup(int64_t n_rows, const uint64_t *words, int64_t n_words,
                    int64_t *inverse, int64_t *first)
{
    uint64_t size = 16, slot;
    int64_t *table, i, g, n_groups = 0;
    const uint64_t *row;

    while (size < 2 * (uint64_t)n_rows)
        size <<= 1;
    table = malloc(size * sizeof(int64_t));
    if (!table)
        return -1;
    memset(table, 0xff, size * sizeof(int64_t)); /* every slot -1: empty */
    for (i = 0; i < n_rows; i++) {
        row = words + i * n_words;
        slot = hash_words(row, n_words, HASH_SEED) & (size - 1);
        for (;;) {
            g = table[slot];
            if (g < 0) {
                table[slot] = g = n_groups++;
                first[g] = i;
                break;
            }
            if (memcmp(words + first[g] * n_words, row, (size_t)n_words * 8) == 0)
                break;
            slot = (slot + 1) & (size - 1);
        }
        inverse[i] = g;
    }
    free(table);
    return n_groups;
}

/* ------------------------------------------------------------------------
 * Backward DEM extraction (repro.stab.dem): Stim's error analysis
 * (Gidney, arXiv:2103.02202), a transcription of dem._walk_python.
 *
 * Every qubit carries an X and a Z sensitivity row of n_words uint64
 * words over the detector and observable bits, plus a live word range
 * [lo, hi): words outside it are zero, so gate updates and case
 * signatures touch only live words.  H and SWAP swap row indices.
 * Nonzero case signatures are merged through an open-addressing hash on
 * their trimmed words; a log of (group, case), sized to the circuit's
 * case count up front, is replayed in reverse -- forward enumeration
 * order -- with the float operations of combine_flip_probabilities.
 * ---------------------------------------------------------------------- */

/* opcodes: the order of repro.stab.dem._OPCODES */
enum {
    DEM_H, DEM_S, DEM_SQRT_X, DEM_CX, DEM_CZ, DEM_SWAP,
    DEM_R, DEM_M, DEM_MX, DEM_MR, DEM_NOISE1, DEM_NOISE2
};

typedef struct {
    int64_t n_words;
    /* 2 * n_qubits sensitivity rows, then the scratch rows ya, yb, sig */
    uint64_t *rows;
    int64_t *lo, *hi;
    int64_t *xr, *zr;      /* row of each qubit's X / Z sensitivity */
    int64_t ya, yb, sig;
    /* merged signatures: trimmed words pool[off .. off + len) from word lo */
    uint64_t *pool, *g_hash;
    int64_t *g_lo, *g_len, *g_off;
    int64_t n_groups, pool_len, pool_cap;
    int32_t *table;        /* group per slot, -1 empty */
    uint64_t table_cap;
    /* one (group, case) entry per nonzero case, in walk order */
    int32_t *log_group, *log_case;
    int64_t n_log;
} dem_state;

static uint64_t *row_words(dem_state *s, int64_t r)
{
    return s->rows + r * s->n_words;
}

static void row_trim(dem_state *s, int64_t r)
{
    const uint64_t *w = row_words(s, r);
    int64_t lo = s->lo[r], hi = s->hi[r];

    while (lo < hi && w[lo] == 0)
        lo++;
    while (hi > lo && w[hi - 1] == 0)
        hi--;
    s->lo[r] = lo;
    s->hi[r] = hi;
}

static void row_clear(dem_state *s, int64_t r)
{
    if (s->lo[r] < s->hi[r])
        memset(row_words(s, r) + s->lo[r], 0, (size_t)(s->hi[r] - s->lo[r]) * 8);
    s->lo[r] = s->hi[r] = 0;
}

/* widen r's live range to cover the non-empty [lo, hi) */
static void row_cover(dem_state *s, int64_t r, int64_t lo, int64_t hi)
{
    if (s->lo[r] >= s->hi[r]) {
        s->lo[r] = lo;
        s->hi[r] = hi;
        return;
    }
    if (lo < s->lo[r])
        s->lo[r] = lo;
    if (hi > s->hi[r])
        s->hi[r] = hi;
}

/* row dst ^= row src */
static void row_xor(dem_state *s, int64_t dst, int64_t src)
{
    int64_t j, lo = s->lo[src], hi = s->hi[src];
    uint64_t *d = row_words(s, dst);
    const uint64_t *a = row_words(s, src);

    if (lo >= hi)
        return;
    for (j = lo; j < hi; j++)
        d[j] ^= a[j];
    row_cover(s, dst, lo, hi);
    row_trim(s, dst);
}

/* row dst = row a ^ row b (a row index < 0 stands for the empty row) */
static void row_set_xor(dem_state *s, int64_t dst, int64_t a, int64_t b)
{
    row_clear(s, dst);
    if (a >= 0)
        row_xor(s, dst, a);
    if (b >= 0)
        row_xor(s, dst, b);
}

/* row r ^= measurement record's signature: words rword/rbits[from .. to) */
static void row_xor_record(dem_state *s, int64_t r, const int64_t *rword,
                           const uint64_t *rbits, int64_t from, int64_t to)
{
    uint64_t *d = row_words(s, r);
    int64_t j;

    if (from >= to)
        return;
    for (j = from; j < to; j++) {
        d[rword[j]] ^= rbits[j];
        row_cover(s, r, rword[j], rword[j] + 1);
    }
    row_trim(s, r);
}

static int table_grow(dem_state *s)
{
    uint64_t cap = s->table_cap * 2, slot;
    int32_t *table = malloc(cap * sizeof(int32_t));
    int64_t g;

    if (!table)
        return -1;
    memset(table, 0xff, cap * sizeof(int32_t));
    for (g = 0; g < s->n_groups; g++) {
        for (slot = s->g_hash[g] & (cap - 1); table[slot] >= 0; slot = (slot + 1) & (cap - 1))
            ;
        table[slot] = (int32_t)g;
    }
    free(s->table);
    s->table = table;
    s->table_cap = cap;
    return 0;
}

/* the group of the nonzero signature held by row r, inserted when new;
 * -1 when out of memory */
static int64_t sig_group(dem_state *s, int64_t r)
{
    int64_t g, lo = s->lo[r], len = s->hi[r] - s->lo[r];
    const uint64_t *w = row_words(s, r) + lo;
    uint64_t h = hash_words(w, len, HASH_SEED ^ (uint64_t)lo), mask, slot;
    uint64_t *pool;

    if (2 * (uint64_t)(s->n_groups + 1) > s->table_cap && table_grow(s) != 0)
        return -1;
    mask = s->table_cap - 1;
    for (slot = h & mask;; slot = (slot + 1) & mask) {
        g = s->table[slot];
        if (g < 0)
            break;
        if (s->g_hash[g] == h && s->g_lo[g] == lo && s->g_len[g] == len
            && memcmp(s->pool + s->g_off[g], w, (size_t)len * 8) == 0)
            return g;
    }
    if (s->pool_len + len > s->pool_cap) {
        while (s->pool_len + len > s->pool_cap)
            s->pool_cap *= 2;
        pool = realloc(s->pool, (size_t)s->pool_cap * 8);
        if (!pool)
            return -1;
        s->pool = pool;
    }
    g = s->n_groups++;
    memcpy(s->pool + s->pool_len, w, (size_t)len * 8);
    s->g_off[g] = s->pool_len;
    s->g_lo[g] = lo;
    s->g_len[g] = len;
    s->g_hash[g] = h;
    s->pool_len += len;
    s->table[slot] = (int32_t)g;
    return g;
}

/* log case c with the signature held by row r (r < 0: empty, no effect) */
static int record_case(dem_state *s, int64_t r, int64_t c)
{
    int64_t g;

    if (r < 0 || s->lo[r] >= s->hi[r])
        return 0;
    g = sig_group(s, r);
    if (g < 0)
        return -1;
    s->log_group[s->n_log] = (int32_t)g;
    s->log_case[s->n_log] = (int32_t)c;
    s->n_log++;
    return 0;
}

/* views of qubit q: (empty, X, Z, Y = X ^ Z); Y goes into scratch row y */
static void qubit_views(dem_state *s, int64_t q, int64_t y, int64_t *v)
{
    row_set_xor(s, y, s->xr[q], s->zr[q]);
    v[0] = -1;
    v[1] = s->xr[q];
    v[2] = s->zr[q];
    v[3] = y;
}

static void swap_i64(int64_t *a, int64_t *b)
{
    int64_t t = *a;
    *a = *b;
    *b = t;
}

static void dem_state_free(dem_state *s)
{
    free(s->rows); free(s->lo); free(s->hi); free(s->xr); free(s->zr);
    free(s->pool); free(s->g_hash); free(s->g_lo); free(s->g_len); free(s->g_off);
    free(s->table); free(s->log_group); free(s->log_case);
}

static int dem_state_init(dem_state *s, int64_t n_qubits, int64_t n_words, int64_t n_cases)
{
    int64_t q, n_rows = 2 * n_qubits + 3;
    size_t C = (size_t)n_cases + 1;

    memset(s, 0, sizeof(*s));
    s->n_words = n_words;
    s->rows = calloc((size_t)(n_rows * n_words) + 1, 8);
    s->lo = calloc((size_t)n_rows, sizeof(int64_t));
    s->hi = calloc((size_t)n_rows, sizeof(int64_t));
    s->xr = malloc((size_t)n_qubits * sizeof(int64_t) + 1);
    s->zr = malloc((size_t)n_qubits * sizeof(int64_t) + 1);
    s->pool_cap = 4096;
    s->pool = malloc((size_t)s->pool_cap * 8);
    /* groups never outnumber cases; untouched pages cost no memory */
    s->g_hash = malloc(C * sizeof(uint64_t));
    s->g_lo = malloc(C * sizeof(int64_t));
    s->g_len = malloc(C * sizeof(int64_t));
    s->g_off = malloc(C * sizeof(int64_t));
    s->table_cap = 1024;
    s->table = malloc(s->table_cap * sizeof(int32_t));
    s->log_group = malloc(C * sizeof(int32_t));
    s->log_case = malloc(C * sizeof(int32_t));
    if (!s->rows || !s->lo || !s->hi || !s->xr || !s->zr || !s->pool || !s->g_hash
        || !s->g_lo || !s->g_len || !s->g_off || !s->table || !s->log_group
        || !s->log_case) {
        dem_state_free(s);
        return -1;
    }
    memset(s->table, 0xff, s->table_cap * sizeof(int32_t));
    for (q = 0; q < n_qubits; q++) {
        s->xr[q] = 2 * q;
        s->zr[q] = 2 * q + 1;
    }
    s->ya = 2 * n_qubits;
    s->yb = s->ya + 1;
    s->sig = s->ya + 2;
    return 0;
}

/* the circuit walk, backwards; -1 when out of memory */
static int dem_run(dem_state *s, int64_t n_ops, const int64_t *ops, const int64_t *tptr,
                   const int64_t *targets, const int64_t *cptr, const int64_t *cview,
                   int64_t n_meas, const int64_t *rptr, const int64_t *rword,
                   const uint64_t *rbits)
{
    int64_t i, k, c, q, a, b, nt, r, cursor = n_meas;
    int64_t va[4], vb[4];
    const int64_t *t;

    for (i = n_ops - 1; i >= 0; i--) {
        t = targets + tptr[i];
        nt = tptr[i + 1] - tptr[i];
        switch (ops[i]) {
        case DEM_H:
            for (k = 0; k < nt; k++)
                swap_i64(&s->xr[t[k]], &s->zr[t[k]]);
            break;
        case DEM_S:
            for (k = 0; k < nt; k++)
                row_xor(s, s->xr[t[k]], s->zr[t[k]]);
            break;
        case DEM_SQRT_X:
            for (k = 0; k < nt; k++)
                row_xor(s, s->zr[t[k]], s->xr[t[k]]);
            break;
        case DEM_CX:
            for (k = nt - 2; k >= 0; k -= 2) {
                row_xor(s, s->xr[t[k]], s->xr[t[k + 1]]);
                row_xor(s, s->zr[t[k + 1]], s->zr[t[k]]);
            }
            break;
        case DEM_CZ:
            for (k = nt - 2; k >= 0; k -= 2) {
                row_xor(s, s->xr[t[k]], s->zr[t[k + 1]]);
                row_xor(s, s->xr[t[k + 1]], s->zr[t[k]]);
            }
            break;
        case DEM_SWAP:
            for (k = nt - 2; k >= 0; k -= 2) {
                swap_i64(&s->xr[t[k]], &s->xr[t[k + 1]]);
                swap_i64(&s->zr[t[k]], &s->zr[t[k + 1]]);
            }
            break;
        case DEM_R:
            for (k = 0; k < nt; k++) {
                row_clear(s, s->xr[t[k]]);
                row_clear(s, s->zr[t[k]]);
            }
            break;
        case DEM_M:
        case DEM_MX:
        case DEM_MR:
            cursor -= nt;
            for (k = 0; k < nt; k++) {
                q = t[k];
                if (ops[i] == DEM_MR) {
                    row_clear(s, s->xr[q]);
                    row_clear(s, s->zr[q]);
                }
                r = ops[i] == DEM_MX ? s->zr[q] : s->xr[q];
                row_xor_record(s, r, rword, rbits, rptr[cursor + k], rptr[cursor + k + 1]);
            }
            break;
        case DEM_NOISE1:
            for (k = nt - 1; k >= 0; k--) {
                qubit_views(s, t[k], s->ya, va);
                for (c = cptr[i + 1] - 1; c >= cptr[i]; c--)
                    if (record_case(s, va[cview[c]], c) != 0)
                        return -1;
            }
            break;
        case DEM_NOISE2:
            for (k = nt - 2; k >= 0; k -= 2) {
                qubit_views(s, t[k], s->ya, va);
                qubit_views(s, t[k + 1], s->yb, vb);
                for (c = cptr[i + 1] - 1; c >= cptr[i]; c--) {
                    a = va[cview[c] & 3];
                    b = vb[cview[c] >> 2];
                    if (a >= 0 && b >= 0) {
                        row_set_xor(s, s->sig, a, b);
                        a = s->sig;
                    } else if (a < 0) {
                        a = b;
                    }
                    if (record_case(s, a, c) != 0)
                        return -1;
                }
            }
            break;
        }
    }
    return 0;
}

/*
 * Extract the detector error model of an encoded circuit (dem._encode):
 * n_ops non-annotation instructions in forward order, opcode ops[i] with
 * qubit targets targets[tptr[i] .. tptr[i+1]) and channel cases
 * cptr[i] .. cptr[i+1) of (cview, cprob) -- a one-qubit view index, or
 * a | b << 2 for a two-qubit case.  Measurement record m flips the words
 * rword/rbits[rptr[m] .. rptr[m+1]) of an n_words-word row.
 *
 * Returns one malloc'd block for dem_free: n_groups merged probabilities
 * (double), then n_groups + 1 int64 offsets into n_bits int64 ascending
 * set-bit indices, one list per nonzero signature.  NULL when out of memory.
 */
void *dem_walk(int64_t n_ops, const int64_t *ops, const int64_t *tptr,
               const int64_t *targets, const int64_t *cptr, const int64_t *cview,
               const double *cprob, int64_t n_qubits, int64_t n_meas, const int64_t *rptr,
               const int64_t *rword, const uint64_t *rbits, int64_t n_words,
               int64_t *n_groups, int64_t *n_bits)
{
    dem_state s;
    int64_t i, g, j, n_cases = 0, nb = 0, *ptr, *bits;
    double *acc;
    uint64_t x;
    void *block = NULL;

    for (i = 0; i < n_ops; i++) {
        if (ops[i] == DEM_NOISE1)
            n_cases += (tptr[i + 1] - tptr[i]) * (cptr[i + 1] - cptr[i]);
        else if (ops[i] == DEM_NOISE2)
            n_cases += (tptr[i + 1] - tptr[i]) / 2 * (cptr[i + 1] - cptr[i]);
    }
    if (n_cases > INT32_MAX || dem_state_init(&s, n_qubits, n_words, n_cases) != 0)
        return NULL;
    if (dem_run(&s, n_ops, ops, tptr, targets, cptr, cview, n_meas, rptr, rword, rbits) != 0)
        goto done;
    for (j = 0; j < s.pool_len; j++)
        nb += __builtin_popcountll(s.pool[j]);
    block = malloc((size_t)(2 * s.n_groups + 1 + nb) * 8);
    if (!block)
        goto done;
    acc = block;
    ptr = (int64_t *)block + s.n_groups;
    bits = ptr + s.n_groups + 1;
    for (g = 0; g < s.n_groups; g++)
        acc[g] = 1.0;
    for (j = s.n_log - 1; j >= 0; j--)
        acc[s.log_group[j]] *= 1.0 - 2.0 * cprob[s.log_case[j]];
    ptr[0] = 0;
    for (g = 0; g < s.n_groups; g++) {
        acc[g] = (1.0 - acc[g]) / 2.0;
        nb = ptr[g];
        for (j = 0; j < s.g_len[g]; j++)
            for (x = s.pool[s.g_off[g] + j]; x; x &= x - 1)
                bits[nb++] = (s.g_lo[g] + j) * 64 + __builtin_ctzll(x);
        ptr[g + 1] = nb;
    }
    *n_groups = s.n_groups;
    *n_bits = nb;
done:
    dem_state_free(&s);
    return block;
}

void dem_free(void *block)
{
    free(block);
}
