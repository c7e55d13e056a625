from setuptools import Extension, setup

ext_modules = []
try:
    from Cython.Build import cythonize
except ImportError:
    pass
else:
    ext_modules = cythonize(
        [
            Extension(
                "flagrep._speedups",
                ["src/flagrep/_speedups.pyx"],
                optional=True,
            )
        ],
        compiler_directives={"language_level": "3"},
    )

setup(ext_modules=ext_modules)
