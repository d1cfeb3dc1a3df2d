// photon_lint fixture: annotated code that FOLLOWS the contracts.
// Analyzed by the linter only — never compiled, so the annotation
// macros appear as bare markers.

struct GoodShared
{
    PHOTON_SHARED_STATE
    int total_ = 0;

    // Internally synchronized: callable from any thread.
    PHOTON_PHASE_EXEMPT
    void publish(int v);

    PHOTON_PHASE_COMMIT
    void commitAdd(int v);
};

struct GoodEngine
{
    int scratch_ = 0;

    void step(int v);

    PHOTON_PHASE_COMMIT
    void commitStep(int v);
};

void
GoodShared::publish(int v)
{
    total_ += v;
}

void
GoodShared::commitAdd(int v)
{
    total_ += v;
}

void
GoodEngine::step(int v)
{
    scratch_ += v; // private state: allowed
    publish(v);    // exempt callee: allowed
}

void
GoodEngine::commitStep(int v)
{
    commitAdd(v); // commit-to-commit: allowed
}
