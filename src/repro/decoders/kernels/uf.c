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
    qsort(s->solids, (size_t)s->n_solid, sizeof(int64_t), cmp_i64);
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

static uint64_t decode_row(uf_state *s, const uint8_t *row, int64_t n_det)
{
    int64_t i, k, a, d, nd = 0;
    const uint8_t *p = row, *end = row + n_det;
    uint64_t mask;

    while (p < end && (p = memchr(p, 1, (size_t)(end - p))) != NULL) {
        s->defects[nd++] = p - row;
        p++;
    }
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

/*
 * Decode n_rows syndrome rows (row-major uint8, n_det = n_nodes - 1 bytes
 * each, values 0/1) into one observable bitmask per row.  Returns 0 on
 * success and -1 when scratch memory cannot be allocated.
 */
int uf_decode_rows(int64_t n_rows, const uint8_t *rows, int64_t n_nodes,
                   int64_t n_edges, const int64_t *indptr, const int64_t *eids,
                   const int64_t *eu, const int64_t *ev, const int64_t *w,
                   const uint64_t *eobs, int64_t boundary, int64_t max_rounds,
                   uint64_t *out)
{
    uf_state s;
    int64_t i, n_det = n_nodes - 1;
    size_t N = (size_t)n_nodes, E = (size_t)n_edges + 1;
    int status = 0;

    memset(&s, 0, sizeof(s));
    s.boundary = boundary;
    s.max_rounds = max_rounds;
    s.indptr = indptr;
    s.eids = eids;
    s.eu = eu;
    s.ev = ev;
    s.w = w;
    s.eobs = eobs;

    s.parent = malloc(N * sizeof(int64_t));
    s.mnext = malloc(N * sizeof(int64_t));
    s.mtail = malloc(N * sizeof(int64_t));
    s.nstamp = calloc(N, sizeof(int64_t));
    s.local = malloc(N * sizeof(int64_t));
    s.rank = calloc(N, sizeof(int32_t));
    s.parity = calloc(N, 1);
    s.bnd = calloc(N, 1);
    s.occ = calloc(N, 1);
    s.dpar = calloc(N, 1);
    s.growth = calloc(E, sizeof(int64_t));
    s.estamp = calloc(E, sizeof(int64_t));
    s.fcount = calloc(E, sizeof(int32_t));
    s.solid = calloc(E, 1);
    s.defects = malloc(N * sizeof(int64_t));
    s.touched = malloc(N * sizeof(int64_t));
    s.active = malloc(N * sizeof(int64_t));
    s.frontier = malloc(E * sizeof(int64_t));
    s.completed = malloc(E * sizeof(int64_t));
    s.solids = malloc(E * sizeof(int64_t));
    s.lnode = malloc(N * sizeof(int64_t));
    s.loff = malloc((N + 1) * sizeof(int64_t));
    s.lpos = malloc(N * sizeof(int64_t));
    s.ladj = malloc(2 * E * sizeof(int64_t));
    s.queue = malloc(N * sizeof(int64_t));
    s.ochild = malloc(N * sizeof(int64_t));
    s.oparent = malloc(N * sizeof(int64_t));
    s.oedge = malloc(N * sizeof(int64_t));
    s.lvis = malloc(N);

    if (!s.parent || !s.mnext || !s.mtail || !s.nstamp || !s.local || !s.rank
        || !s.parity || !s.bnd || !s.occ || !s.dpar || !s.growth || !s.estamp
        || !s.fcount || !s.solid || !s.defects || !s.touched || !s.active
        || !s.frontier || !s.completed || !s.solids || !s.lnode || !s.loff
        || !s.lpos || !s.ladj || !s.queue || !s.ochild || !s.oparent
        || !s.oedge || !s.lvis) {
        status = -1;
    } else {
        for (i = 0; i < n_nodes; i++) {
            s.parent[i] = i;
            s.local[i] = -1;
        }
        for (i = 0; i < n_rows; i++)
            out[i] = decode_row(&s, rows + i * n_det, n_det);
    }

    free(s.parent); free(s.mnext); free(s.mtail); free(s.nstamp);
    free(s.local); free(s.rank); free(s.parity); free(s.bnd); free(s.occ);
    free(s.dpar); free(s.growth); free(s.estamp); free(s.fcount);
    free(s.solid); free(s.defects); free(s.touched); free(s.active);
    free(s.frontier); free(s.completed); free(s.solids); free(s.lnode);
    free(s.loff); free(s.lpos); free(s.ladj); free(s.queue); free(s.ochild);
    free(s.oparent); free(s.oedge); free(s.lvis);
    return status;
}
