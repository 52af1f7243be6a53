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
 * helpers (plane_xor_darts, plane_dedup), so one build serves all of them.
 *
 * All scratch state is allocated per call: concurrent calls (ctypes drops
 * the GIL around foreign calls) never share memory.  Build with
 *   cc -O2 -shared -fPIC -o uf.so uf.c
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    /* graph, borrowed from the caller */
    int64_t boundary, max_rounds;
    const int64_t *indptr, *eids, *eu, *ev, *w;
    const uint64_t *eobs;
    /* union-find forest and cluster state, per node */
    int64_t *parent, *mnext, *mtail, *nstamp, *local;
    int32_t *rank;
    uint8_t *parity, *bnd, *occ, *dpar;
    /* growth state, per edge */
    int64_t *growth, *estamp;
    int32_t *fcount;
    uint8_t *solid;
    /* work lists */
    int64_t *defects, *touched, *active, *frontier, *completed, *solids;
    int64_t *lnode, *loff, *lpos, *ladj, *queue, *ochild, *oparent, *oedge;
    uint8_t *lvis;
    int64_t n_touched, n_solid, node_stamp, edge_stamp;
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
    const int64_t *indptr = s->indptr, *eids = s->eids, *w = s->w;
    int64_t round, i, k, node, e, root, n_active, n_front, n_comp, step, need, g;

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
                    if (s->solid[e] || s->estamp[e] == s->edge_stamp)
                        continue;
                    s->estamp[e] = s->edge_stamp;
                    if (s->fcount[e] == 0)
                        s->frontier[n_front++] = e;
                    s->fcount[e] += 1;
                }
            }
        }
        if (n_front == 0)
            break; /* isolated odd cluster with no frontier: give up */
        /* event-driven growth: jump straight to the next completion */
        step = -1;
        for (i = 0; i < n_front; i++) {
            e = s->frontier[i];
            need = ceil_div(w[e] - s->growth[e], s->fcount[e]);
            if (step < 0 || need < step)
                step = need;
        }
        n_comp = 0;
        for (i = 0; i < n_front; i++) {
            e = s->frontier[i];
            g = s->growth[e] + (int64_t)s->fcount[e] * step;
            s->growth[e] = g;
            s->fcount[e] = 0;
            if (g >= w[e])
                s->completed[n_comp++] = e;
        }
        for (i = 0; i < n_comp; i++) {
            e = s->completed[i];
            s->solid[e] = 1;
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
    int64_t i, k, a, d;
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
     * edges incident to touched nodes */
    for (i = 0; i < s->n_touched; i++) {
        a = s->touched[i];
        s->parent[a] = a;
        s->rank[a] = 0;
        s->parity[a] = 0;
        s->bnd[a] = 0;
        s->occ[a] = 0;
        for (k = s->indptr[a]; k < s->indptr[a + 1]; k++) {
            s->growth[s->eids[k]] = 0;
            s->solid[s->eids[k]] = 0;
        }
    }
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

static void state_free(uf_state *s)
{
    free(s->parent); free(s->mnext); free(s->mtail); free(s->nstamp);
    free(s->local); free(s->rank); free(s->parity); free(s->bnd); free(s->occ);
    free(s->dpar); free(s->growth); free(s->estamp); free(s->fcount);
    free(s->solid); free(s->defects); free(s->touched); free(s->active);
    free(s->frontier); free(s->completed); free(s->solids); free(s->lnode);
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
    s->w = w;
    s->eobs = eobs;

    s->parent = malloc(N * sizeof(int64_t));
    s->mnext = malloc(N * sizeof(int64_t));
    s->mtail = malloc(N * sizeof(int64_t));
    s->nstamp = calloc(N, sizeof(int64_t));
    s->local = malloc(N * sizeof(int64_t));
    s->rank = calloc(N, sizeof(int32_t));
    s->parity = calloc(N, 1);
    s->bnd = calloc(N, 1);
    s->occ = calloc(N, 1);
    s->dpar = calloc(N, 1);
    s->growth = calloc(E, sizeof(int64_t));
    s->estamp = calloc(E, sizeof(int64_t));
    s->fcount = calloc(E, sizeof(int32_t));
    s->solid = calloc(E, 1);
    s->defects = malloc(N * sizeof(int64_t));
    s->touched = malloc(N * sizeof(int64_t));
    s->active = malloc(N * sizeof(int64_t));
    s->frontier = malloc(E * sizeof(int64_t));
    s->completed = malloc(E * sizeof(int64_t));
    s->solids = malloc(E * sizeof(int64_t));
    s->lnode = malloc(N * sizeof(int64_t));
    s->loff = malloc((N + 1) * sizeof(int64_t));
    s->lpos = malloc(N * sizeof(int64_t));
    s->ladj = malloc(2 * E * sizeof(int64_t));
    s->queue = malloc(N * sizeof(int64_t));
    s->ochild = malloc(N * sizeof(int64_t));
    s->oparent = malloc(N * sizeof(int64_t));
    s->oedge = malloc(N * sizeof(int64_t));
    s->lvis = malloc(N);

    if (!s->parent || !s->mnext || !s->mtail || !s->nstamp || !s->local || !s->rank
        || !s->parity || !s->bnd || !s->occ || !s->dpar || !s->growth || !s->estamp
        || !s->fcount || !s->solid || !s->defects || !s->touched || !s->active
        || !s->frontier || !s->completed || !s->solids || !s->lnode || !s->loff
        || !s->lpos || !s->ladj || !s->queue || !s->ochild || !s->oparent
        || !s->oedge || !s->lvis) {
        state_free(s);
        return -1;
    }
    for (i = 0; i < n_nodes; i++) {
        s->parent[i] = i;
        s->local[i] = -1;
    }
    return 0;
}

/*
 * Decode n_rows bit-packed syndrome rows (row-major, n_words uint64 words
 * each, detector d in word d / 64, bit d % 64; n_det = n_nodes - 1) into
 * one observable bitmask per row.  Returns 0 on success and -1 when
 * scratch memory cannot be allocated.
 */
int uf_decode_packed(int64_t n_rows, const uint64_t *words, int64_t n_words,
                     int64_t n_nodes, int64_t n_edges, const int64_t *indptr,
                     const int64_t *eids, const int64_t *eu, const int64_t *ev,
                     const int64_t *w, const uint64_t *eobs, int64_t boundary,
                     int64_t max_rounds, uint64_t *out)
{
    uf_state s;
    int64_t i, n_det = n_nodes - 1;

    if (state_init(&s, n_nodes, n_edges, indptr, eids, eu, ev, w, eobs, boundary,
                   max_rounds) != 0)
        return -1;
    for (i = 0; i < n_rows; i++)
        out[i] = decode_packed_row(&s, words + i * n_words, n_words, n_det);
    state_free(&s);
    return 0;
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

static uint64_t hash_row(const uint64_t *row, int64_t n_words)
{
    uint64_t h = 0x9E3779B97F4A7C15ULL;
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
        slot = hash_row(row, n_words) & (size - 1);
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
